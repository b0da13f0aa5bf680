//go:build !(linux && (amd64 || arm64))

package udpnet

import (
	"testing"
	"time"
)

// TestMulticastVectorOneSyscallPerDatagram: the portable dataplane moves a
// vector one datagram per syscall with unchanged delivery semantics, and
// every syscall observes batch size 1.
func TestMulticastVectorOneSyscallPerDatagram(t *testing.T) {
	a, b := pair(t)
	pkts := [][]byte{[]byte("x1"), []byte("x2"), []byte("x3")}
	if err := a.Multicast(pkts); err != nil {
		t.Fatal(err)
	}
	for range pkts {
		recvWithin(t, b.Data(), 2*time.Second)
	}
	snap := a.MetricsSnapshot()
	if snap.SendSyscalls != 3 {
		t.Fatalf("SendSyscalls = %d for 3 datagrams, want 3", snap.SendSyscalls)
	}
	if mean := snap.SendBatch.Mean; mean != 1 {
		t.Fatalf("SendBatch.Mean = %v, want 1", mean)
	}
	if rb := b.MetricsSnapshot().RecvBatch; rb.Max != 1 {
		t.Fatalf("RecvBatch.Max = %d, want 1", rb.Max)
	}
}
