package serve

import (
	"fmt"
	"math"
	"testing"

	"pretium/internal/graph"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// FuzzEpochSwap drives the epoch state machine through byte-decoded
// op sequences — publish / quote / admit-batch / drain — over a small
// tight-capacity world where quotes really do run out of room and cross
// the premium threshold. Invariants checked after every drain and at
// the end:
//
//   - room is never negative and never exceeds capacity on any cell;
//   - committed bytes are conserved across epoch swaps: the drained
//     room always equals exactly the bytes admitted since the last
//     room-adopting publish (a stale-epoch commit or a clone race
//     would lose or duplicate bytes);
//   - quotes never return negative prices or segments beyond demand.
func FuzzEpochSwap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x10, 0x01, 0x05, 0x03, 0x00})
	f.Add([]byte{0x02, 0xff, 0x02, 0xff, 0x00, 0x04, 0x02, 0x80, 0x03, 0x00})
	// Publish storm with interleaved admits, including a room-adopting
	// re-plan (0x00 with odd modifier).
	f.Add([]byte{
		0x00, 0x02, 0x02, 0x33, 0x00, 0x04, 0x02, 0x44, 0x03, 0x00,
		0x00, 0x05, 0x02, 0x55, 0x01, 0x22, 0x00, 0x06, 0x03, 0x00,
	})
	f.Add([]byte{0x01, 0x00, 0x01, 0x40, 0x01, 0x80, 0x01, 0xc0, 0x02, 0x7f, 0x03, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		const horizon = 6
		net, templates := fuzzWorld(t, horizon)
		st := pricing.NewState(net, horizon, 1.0)
		svc, err := New(st, Config{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}

		committed := 0.0 // bytes admitted since the last room reset
		epochK := 0
		checkDrain := func() {
			dr := svc.DrainState()
			total := 0.0
			for e := range dr.Reserved {
				for ts, v := range dr.Reserved[e] {
					if v < -1e-9 {
						t.Fatalf("negative room at edge %d step %d: %v", e, ts, v)
					}
					if cap := dr.Capacity(graph.EdgeID(e), ts); v > cap+1e-6 {
						t.Fatalf("overcommitted room at edge %d step %d: %v > cap %v", e, ts, v, cap)
					}
					total += v
				}
			}
			if diff := math.Abs(total - committed); diff > 1e-9*math.Max(1, committed) {
				t.Fatalf("bytes not conserved: admitted %v since last reset, room holds %v", committed, total)
			}
		}

		// Ops start at byte 1: byte 0 is a header the corpus still carries.
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 4 {
			case 0: // publish: price from arg, odd arg adopts the plan's empty room
				epochK++
				price := 0.25 + float64(arg>>1%16)*0.25
				plan := pricing.NewState(net, horizon, price)
				adopt := arg&1 == 1
				if err := svc.Publish(plan, adopt); err != nil {
					t.Fatalf("publish %d: %v", epochK, err)
				}
				if adopt {
					committed = 0
				}
				requireViewMatchesLive(t, svc)
			case 1: // quote
				r := fuzzRequest(templates, arg, horizon)
				menu := svc.Quote(r, r.Demand)
				sold := 0.0
				for _, s := range menu.Segments {
					if s.Price < 0 || math.IsNaN(s.Price) {
						t.Fatalf("quote returned bad price %v", s.Price)
					}
					if s.Bytes <= 0 {
						t.Fatalf("quote returned empty segment %+v", s)
					}
					sold += s.Bytes
				}
				if sold > r.Demand+1e-9 || math.Abs(sold-menu.Cap()) > 1e-9 {
					t.Fatalf("quote oversold: %v of demand %v (cap %v)", sold, r.Demand, menu.Cap())
				}
			case 2: // admit a small batch
				n := 1 + int(arg)%3
				batch := make([]*traffic.Request, n)
				for j := range batch {
					batch[j] = fuzzRequest(templates, arg+byte(j)*41, horizon)
				}
				for _, r := range batch {
					adm := svc.Admit(r)
					if adm == nil {
						continue
					}
					for _, al := range adm.Allocs {
						committed += al.Bytes
					}
				}
			case 3: // drain and check every invariant
				checkDrain()
			}
		}
		checkDrain()
		if got := svc.Epoch(); got != uint64(epochK) {
			t.Fatalf("epoch %d after %d publishes", got, epochK)
		}
	})
}

// fuzzWorld is the race-test clique with deliberately tight capacity
// (240 per edge) so fuzzed demands hit the premium threshold and run
// cells fully out of room.
func fuzzWorld(t testing.TB, horizon int) (*graph.Network, []*traffic.Request) {
	t.Helper()
	net := graph.New()
	var nodes []graph.NodeID
	for i := 0; i < 3; i++ {
		nodes = append(nodes, net.AddNode(fmt.Sprintf("f%d", i), fmt.Sprintf("fr%d", i)))
	}
	var templates []*traffic.Request
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			e := net.AddEdge(nodes[i], nodes[j], 240)
			templates = append(templates, &traffic.Request{
				Src: nodes[i], Dst: nodes[j],
				Routes: []graph.Path{{e}},
				Kind:   traffic.ByteRequest,
			})
		}
	}
	return net, templates
}

// fuzzRequest materializes a concrete request from a template and one
// argument byte: window, demand, and value all derive from arg so the
// fuzzer controls decline/partial/full purchases and room exhaustion.
func fuzzRequest(templates []*traffic.Request, arg byte, horizon int) *traffic.Request {
	tmpl := templates[int(arg)%len(templates)]
	r := *tmpl
	start := int(arg>>2) % horizon
	r.Start, r.Arrival = start, start
	r.End = min(start+int(arg>>5)%3, horizon-1)
	r.Demand = 1 + float64(arg)*3
	r.Value = float64(arg%5) * 0.6 // spans decline..full-purchase around price ~1
	return &r
}
