package pricing

import "pretium/internal/traffic"

// Admitter is the request-admission front-end: it binds a shared State
// to a private Quoter so a stream of arrivals is served with reusable
// scratch — the steady state allocates only each returned menu and
// admission record.
//
// An Admitter is not safe for concurrent use (admissions mutate the
// shared State); shard one Admitter + State per goroutine for parallel
// serving.
type Admitter struct {
	st *State
	q  Quoter
}

// NewAdmitter creates an admitter serving quotes against st.
func NewAdmitter(st *State) *Admitter { return &Admitter{st: st} }

// Quote computes req's price menu without admitting it (the state is not
// modified). Equivalent to QuoteMenu with this admitter's scratch.
func (a *Admitter) Quote(req *traffic.Request, maxBytes float64) *Menu {
	return a.q.Quote(a.st, req, maxBytes)
}

// Admit quotes req, applies the Theorem 5.2 purchase rule with the
// request's private value, and commits the result (nil when the customer
// declines).
func (a *Admitter) Admit(req *traffic.Request) *Admission {
	menu := a.Quote(req, req.Demand)
	return Commit(a.st, req, menu, menu.Purchase(req.Value, req.Demand))
}
