package accelring

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"accelring/internal/faultplan"
	"accelring/internal/transport"
	"accelring/internal/transport/memnet"
	"accelring/internal/transport/udpnet"
)

// Transport moves protocol packets between participants: multicast for
// data, unicast for the token, received on separate channels.
type Transport = transport.Transport

// Peer is the addressing information for one participant on a UDP network.
type Peer struct {
	// Host is the peer's IP address or hostname.
	Host string
	// DataPort receives data packets when multicast emulation is in use
	// (MulticastGroup empty).
	DataPort int
	// TokenPort receives the unicast token.
	TokenPort int
}

// Ports a -peers entry gets when it names only a host.
const (
	defaultDataPort  = 7411
	defaultTokenPort = 7412
)

// ParsePeers parses the command-line peer list the CLIs share,
// "1=hostA,2=hostB:7421:7422" — comma-separated id=host[:dataPort:tokenPort]
// entries — into a peer map. An entry without ports gets 7411 (data) and
// 7412 (token). IDs must be non-zero and distinct, hosts non-empty and
// ports in 1–65535.
func ParsePeers(s string) (map[ParticipantID]Peer, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -peers")
	}
	peers := make(map[ParticipantID]Peer)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -peers entry %q (want id=host[:dataPort:tokenPort])", part)
		}
		idv, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil || idv == 0 {
			return nil, fmt.Errorf("bad peer id %q (want a non-zero 32-bit integer)", kv[0])
		}
		id := ParticipantID(idv)
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("peer id %d listed twice", id)
		}
		fields := strings.Split(kv[1], ":")
		peer := Peer{Host: fields[0], DataPort: defaultDataPort, TokenPort: defaultTokenPort}
		if peer.Host == "" {
			return nil, fmt.Errorf("empty host in %q", part)
		}
		switch len(fields) {
		case 1:
		case 3:
			if peer.DataPort, err = parsePort(fields[1]); err != nil {
				return nil, fmt.Errorf("bad data port in %q: %v", part, err)
			}
			if peer.TokenPort, err = parsePort(fields[2]); err != nil {
				return nil, fmt.Errorf("bad token port in %q: %v", part, err)
			}
		default:
			return nil, fmt.Errorf("bad -peers entry %q (want id=host[:dataPort:tokenPort])", part)
		}
		peers[id] = peer
	}
	return peers, nil
}

// parsePort parses a UDP port number, 1–65535.
func parsePort(s string) (int, error) {
	p, err := strconv.ParseUint(s, 10, 16)
	if err == nil && p == 0 {
		err = fmt.Errorf("port 0")
	}
	return int(p), err
}

// UDPOptions configures the real-network transport: IP-multicast for data
// messages and UDP unicast for the token, on separate sockets as in the
// paper's implementations.
type UDPOptions struct {
	// ID is this participant.
	ID ParticipantID
	// Peers maps every ring participant (including ID) to its addresses.
	Peers map[ParticipantID]Peer
	// MulticastGroup is the data multicast group, e.g. "239.192.7.4:7400".
	// Leave empty to emulate multicast with unicast fan-out (for networks
	// without IP-multicast, as Spread optionally does).
	MulticastGroup string
}

// NewUDPTransport opens a UDP/IP-multicast transport.
func NewUDPTransport(opts UDPOptions) (Transport, error) {
	peers := make(map[ParticipantID]udpnet.Peer, len(opts.Peers))
	for id, p := range opts.Peers {
		peers[id] = udpnet.Peer{Host: p.Host, DataPort: p.DataPort, TokenPort: p.TokenPort}
	}
	return udpnet.New(udpnet.Config{
		MyID:           opts.ID,
		Peers:          peers,
		MulticastGroup: opts.MulticastGroup,
	})
}

// MemoryNetwork is an in-process network hub for tests, simulations and
// single-process demos. Faults come from a declarative fault plan:
// packet loss, duplication, reordering delay and network partitions, each
// decision drawn from the plan's seeded per-link streams.
type MemoryNetwork struct {
	hub *memnet.Hub
}

// NewMemoryNetwork creates an in-process network. The seed is unused —
// a fault plan carries its own — and stays because benchmark/stack.go,
// which changes only with the benchmark, calls it.
func NewMemoryNetwork(seed int64) *MemoryNetwork {
	return &MemoryNetwork{hub: memnet.NewHub()}
}

// Endpoint attaches a participant to the network.
func (m *MemoryNetwork) Endpoint(id ParticipantID) Transport {
	return m.hub.Join(id)
}

// SetLatency sets the per-hop delivery latency for endpoints created
// afterwards (default 100µs, a fast LAN).
func (m *MemoryNetwork) SetLatency(d time.Duration) { m.hub.SetLatency(d) }

// ApplyFaults evaluates a declarative fault plan on every subsequent
// packet, replacing the previous one; crash and restart events in the plan
// are ignored. A nil plan clears every fault, partitions included.
func (m *MemoryNetwork) ApplyFaults(plan *faultplan.Plan) { m.hub.ApplyFaults(plan) }
