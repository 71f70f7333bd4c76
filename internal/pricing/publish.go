package pricing

import "fmt"

// Publication lifecycle for shared states.
//
// The admission service (internal/serve) hands each pricing epoch two
// States (see Successor): a *published* one that serialized commits
// mutate via Reserve, and a *sealed* one that concurrent quoters read
// with no lock at all. The comment on State warns that direct matrix
// writers must call Invalidate; under concurrency even that contract is
// too weak — a matrix write plus a cache rebuild cannot be made atomic
// against a lock-free reader. So states carry an explicit stage and
// every mutator poisons itself past the stage where it stops being
// safe:
//
//	mutable   — fresh from NewState/Clone; anything goes. This is the
//	            snapshot-construction window, the ONLY point where
//	            planning inputs (prices, plans, outages)
//	            may change.
//	published — shared with the admission service. Planning mutators
//	            panic; Reserve stays legal because the service
//	            serializes room commits.
//	sealed    — shared with lock-free readers. Every mutator panics.
//
// The check is always on, not debug-only: it is a single byte compare
// on paths that already touch per-edge arrays, and a poisoned write
// that only panics in debug builds is a data race in production.

type mutStage uint8

const (
	stateMutable mutStage = iota
	statePublished
	stateSealed
)

func (s mutStage) String() string {
	switch s {
	case statePublished:
		return "published"
	case stateSealed:
		return "sealed"
	default:
		return "mutable"
	}
}

// guardPlan poisons planning mutators on any shared state.
func (s *State) guardPlan(op string) {
	if s.mut != stateMutable {
		panic("pricing: " + op + " on a " + s.mut.String() +
			" state; snapshot construction (before MarkPublished) is the only mutation point")
	}
}

// guardRoom poisons room commits on a sealed state only.
func (s *State) guardRoom(op string) {
	if s.mut == stateSealed {
		panic("pricing: " + op + " on a sealed state; room commits belong on the published copy")
	}
}

// MarkPublished moves the state to the published stage: planning
// mutators panic from here on, Reserve remains legal. Irreversible —
// build a Clone to plan the next epoch.
func (s *State) MarkPublished() { s.mut = statePublished }

// Seal moves the state to the sealed stage: every mutator panics,
// making the state safe to read concurrently with no synchronization.
// Irreversible.
func (s *State) Seal() { s.mut = stateSealed }

// Published reports whether planning mutators are poisoned.
func (s *State) Published() bool { return s.mut != stateMutable }

// Sealed reports whether all mutators are poisoned.
func (s *State) Sealed() bool { return s.mut == stateSealed }

// Clone deep-copies the state into a fresh *mutable* one: matrices,
// segment caches, the outage overlay, and the adjustment config are all
// independent of the receiver (also of one that shares planning arrays
// with its sealed view, see Successor); only the immutable Network is
// shared.
func (s *State) Clone() *State {
	c := &State{
		Net:     s.Net,
		Horizon: s.Horizon,
		Adjust:  s.Adjust,
		outVer:  s.outVer,
	}
	c.BasePrice = cloneMatrix(s.BasePrice)
	c.Reserved = cloneMatrix(s.Reserved)
	c.segPrice = append([]float64(nil), s.segPrice...)
	c.segRoom = append([]float64(nil), s.segRoom...)
	c.outTotal = append([]float64(nil), s.outTotal...)
	return c
}

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// Successor prepares the pricing generation that follows s: live, the
// copy room commits will land in, and view, the sealed snapshot
// lock-free quoters read. Both take plan's planning inputs — prices,
// outage overlay, adjustment config — deep-copied
// once and *shared* between the two: planning mutators are poisoned on a
// published and on a sealed state alike, so nothing writes those arrays
// again. Each owns what a room commit moves (Reserved, the segment
// cache); that storage is allocated here and filled by CarryRoom, and
// until then neither state is usable. Nothing here reads room, so a
// publisher runs it while admissions still commit into s. plan may be s
// itself, and in any stage: the caller owns both sides of a publish.
func (s *State) Successor(plan *State) (live, view *State, err error) {
	ne, h := s.Net.NumEdges(), s.Horizon
	if plan.Net.NumEdges() != ne {
		return nil, nil, fmt.Errorf("pricing: plan has %d edges, want %d", plan.Net.NumEdges(), ne)
	}
	if plan.Horizon != h {
		return nil, nil, fmt.Errorf("pricing: plan has horizon %d, want %d", plan.Horizon, h)
	}
	live = &State{
		Net:       s.Net,
		Horizon:   h,
		Adjust:    plan.Adjust,
		BasePrice: cloneMatrix(plan.BasePrice),
		outTotal:  append([]float64(nil), plan.outTotal...),
		outVer:    plan.outVer,
	}
	view = new(State)
	*view = *live
	for _, st := range []*State{live, view} {
		st.Reserved = newMatrix(ne, h)
		st.segPrice = make([]float64, ne*h)
		st.segRoom = make([]float64, ne*h)
	}
	return live, view, nil
}

// CarryRoom completes a Successor pair: live adopts from's reservation
// plan and rebuilds its segment cache, view receives a copy of both,
// live becomes published and view sealed. It allocates nothing — when
// from is the state admissions are committing into, this is the one
// step of a publish that has to exclude them.
func (s *State) CarryRoom(view, from *State) {
	for e := range s.Reserved {
		copy(s.Reserved[e], from.Reserved[e])
	}
	s.Invalidate()
	for e := range s.Reserved {
		copy(view.Reserved[e], s.Reserved[e])
	}
	copy(view.segPrice, s.segPrice)
	copy(view.segRoom, s.segRoom)
	s.mut, view.mut = statePublished, stateSealed
}
