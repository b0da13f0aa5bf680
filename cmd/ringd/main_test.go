package main

import (
	"slices"
	"testing"

	"accelring"
)

func TestParseMembers(t *testing.T) {
	peers, err := accelring.ParsePeers("1=127.0.0.1,2=127.0.0.2,3=127.0.0.3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag string
		want []accelring.ParticipantID // nil with ok: dynamic discovery
		ok   bool
	}{
		{"", nil, true},
		{"1,2,3", []accelring.ParticipantID{1, 2, 3}, true},
		{" 2, 1", []accelring.ParticipantID{2, 1}, true},
		{"1,2,4", nil, false}, // 4 has no -peers entry
		{"0,1,2", nil, false}, // neither has 0
		{"1,x", nil, false},
		{"1,-2", nil, false},
	} {
		got, err := parseMembers(tc.flag, peers)
		if (err == nil) != tc.ok || !slices.Equal(got, tc.want) {
			t.Errorf("parseMembers(%q) = %v, %v; want %v, ok=%v", tc.flag, got, err, tc.want, tc.ok)
		}
	}
}
