package serve

import (
	"fmt"
	"reflect"
	"testing"

	"pretium/internal/exp"
	"pretium/internal/graph"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// The differential suite is the service's correctness proof: it must be
// *exactly* equivalent to the serial pricing.Admitter on the same
// arrival stream — identical admit/decline decisions, bit-identical
// prices and payments, bit-identical final room. Equivalence holds
// because an admission is the serial admitter's quote and commit run
// under one lock, so commits on every (edge, step) cell happen in call
// order and even floating-point sums agree to the last bit.

// pubPoint is a mid-stream price publication: before serving request
// index `after`, set a uniform base price (via NewState semantics, so
// usage-priced edges get their cost added) and optionally reset the
// reservation plan (a SAM-style re-plan rather than a PC refresh).
type pubPoint struct {
	after     int
	price     float64
	resetRoom bool
}

// serialReplay is the reference: one Admitter, publishes applied as
// direct state mutations at the same stream positions.
func serialReplay(net *graph.Network, steps int, p0 float64, reqs []*traffic.Request, pubs []pubPoint) ([]*pricing.Admission, *pricing.State) {
	st := pricing.NewState(net, steps, p0)
	ad := pricing.NewAdmitter(st)
	adms := make([]*pricing.Admission, len(reqs))
	pp := 0
	for i, r := range reqs {
		for pp < len(pubs) && pubs[pp].after == i {
			plan := pricing.NewState(net, steps, pubs[pp].price)
			if err := st.SetPricesWindow(0, plan.BasePrice); err != nil {
				panic(err)
			}
			if pubs[pp].resetRoom {
				if err := st.SetReserved(plan.Reserved); err != nil {
					panic(err)
				}
			}
			pp++
		}
		adms[i] = ad.Admit(r)
	}
	return adms, st
}

// serviceReplay runs the same stream through the concurrent service:
// Admits between publish points, Publish installing the same price
// planes.
func serviceReplay(t *testing.T, net *graph.Network, steps int, p0 float64, reqs []*traffic.Request, pubs []pubPoint) ([]*pricing.Admission, *pricing.State) {
	t.Helper()
	svc, err := New(pricing.NewState(net, steps, p0), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	adms := make([]*pricing.Admission, 0, len(reqs))
	from := 0
	flush := func(to int) {
		for ; from < to; from++ {
			adms = append(adms, svc.Admit(reqs[from]))
		}
	}
	for _, p := range pubs {
		flush(p.after)
		plan := pricing.NewState(net, steps, p.price)
		if err := svc.Publish(plan, p.resetRoom); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	flush(len(reqs))
	return adms, svc.DrainState()
}

func byteRequests(reqs []*traffic.Request) []*traffic.Request {
	out := reqs[:0:0]
	for _, r := range reqs {
		if r.Kind == traffic.ByteRequest {
			out = append(out, r)
		}
	}
	return out
}

// diffAdmissions asserts positionwise bit-identical admissions.
func diffAdmissions(t *testing.T, want, got []*pricing.Admission) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("admission count: serial %d, service %d", len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if (a == nil) != (b == nil) {
			t.Fatalf("req %d: decision diverged: serial admitted=%v, service admitted=%v", i, a != nil, b != nil)
		}
		if a == nil {
			continue
		}
		if a.Bought != b.Bought || a.Guaranteed != b.Guaranteed || a.Payment != b.Payment || a.Lambda != b.Lambda {
			t.Fatalf("req %d: admission diverged:\nserial  bought=%v guaranteed=%v payment=%v lambda=%v\nservice bought=%v guaranteed=%v payment=%v lambda=%v",
				i, a.Bought, a.Guaranteed, a.Payment, a.Lambda, b.Bought, b.Guaranteed, b.Payment, b.Lambda)
		}
		if !reflect.DeepEqual(a.Allocs, b.Allocs) {
			t.Fatalf("req %d: allocs diverged:\nserial  %+v\nservice %+v", i, a.Allocs, b.Allocs)
		}
		if !reflect.DeepEqual(a.Menu.Segments, b.Menu.Segments) || a.Menu.Cap() != b.Menu.Cap() {
			t.Fatalf("req %d: menus diverged:\nserial  %+v cap=%v\nservice %+v cap=%v",
				i, a.Menu.Segments, a.Menu.Cap(), b.Menu.Segments, b.Menu.Cap())
		}
	}
}

// diffRoom asserts bit-identical per-(edge, step) room consumption and
// coherent price views.
func diffRoom(t *testing.T, want, got *pricing.State) {
	t.Helper()
	for e := range want.Reserved {
		for ts := range want.Reserved[e] {
			if want.Reserved[e][ts] != got.Reserved[e][ts] {
				t.Fatalf("room diverged at edge %d step %d: serial %v, service %v",
					e, ts, want.Reserved[e][ts], got.Reserved[e][ts])
			}
			id := graph.EdgeID(e)
			if a, b := want.MarginalPrice(id, ts, 0), got.MarginalPrice(id, ts, 0); a != b {
				t.Fatalf("price view diverged at edge %d step %d: serial %v, service %v", e, ts, a, b)
			}
		}
	}
}

func TestServiceEquivalentToSerial(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		setup := exp.NewSetup(exp.Small(), exp.WithSeed(seed))
		reqs := byteRequests(setup.Requests)
		if len(reqs) < 20 {
			t.Fatalf("seed %d: workload too small (%d byte requests)", seed, len(reqs))
		}
		// Price refresh a third in, SAM-style room re-plan two thirds in.
		pubs := []pubPoint{
			{after: len(reqs) / 3, price: 1.8},
			{after: 2 * len(reqs) / 3, price: 0.6, resetRoom: true},
		}
		serialAdms, serialSt := serialReplay(setup.Net, setup.Scale.Steps, 1.0, reqs, pubs)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			adms, st := serviceReplay(t, setup.Net, setup.Scale.Steps, 1.0, reqs, pubs)
			diffAdmissions(t, serialAdms, adms)
			diffRoom(t, serialSt, st)
		})
	}
}

// The one-by-one Admit path (what the HTTP front-end drives) is
// serial-equivalent across a single price refresh too.
func TestServiceAdmitOneByOneEquivalent(t *testing.T) {
	setup := exp.NewSetup(exp.Small(), exp.WithSeed(3))
	reqs := byteRequests(setup.Requests)
	pubs := []pubPoint{{after: len(reqs) / 2, price: 2.2}}
	serialAdms, serialSt := serialReplay(setup.Net, setup.Scale.Steps, 1.0, reqs, pubs)
	adms, st := serviceReplay(t, setup.Net, setup.Scale.Steps, 1.0, reqs, pubs)
	diffAdmissions(t, serialAdms, adms)
	diffRoom(t, serialSt, st)
}

// Quotes against the sealed view must match quotes against a serial
// state frozen at the same epoch: the view is an exact snapshot, not an
// approximation.
func TestServiceQuoteMatchesFrozenSerial(t *testing.T) {
	setup := exp.NewSetup(exp.Small(), exp.WithSeed(5))
	reqs := byteRequests(setup.Requests)
	half := reqs[:len(reqs)/2]

	serialAdms, serialSt := serialReplay(setup.Net, setup.Scale.Steps, 1.0, half, nil)
	_ = serialAdms

	svc, err := New(pricing.NewState(setup.Net, setup.Scale.Steps, 1.0), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, r := range half {
		svc.Admit(r)
	}
	// Publish with no plan: an epoch bump freezing the current room into
	// the new view.
	if err := svc.Publish(nil, false); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	for i, r := range reqs[len(reqs)/2:] {
		want := pricing.QuoteMenu(serialSt, r, r.Demand)
		got := svc.Quote(r, r.Demand)
		if !reflect.DeepEqual(want.Segments, got.Segments) || want.Cap() != got.Cap() {
			t.Fatalf("quote %d diverged:\nserial  %+v cap=%v\nservice %+v cap=%v",
				i, want.Segments, want.Cap(), got.Segments, got.Cap())
		}
	}
}
