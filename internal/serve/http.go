package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"

	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/traffic"
)

// The HTTP front-end is deliberately thin: JSON in, JSON out, no state
// of its own beyond the Service. Clients name nodes; the handler
// resolves the admissible route set with the same k-shortest-paths rule
// the experiments use, so a transfer admitted over HTTP is priced
// exactly like one admitted in a replay.

// wireRequest is the transport form of a transfer request.
type wireRequest struct {
	ID     int     `json:"id"`
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Start  int     `json:"start"`
	End    int     `json:"end"`
	Demand float64 `json:"demand"`
	Value  float64 `json:"value"`
	// MaxRoutes caps the admissible route set (k of k-shortest paths);
	// 0 means DefaultMaxRoutes.
	MaxRoutes int `json:"max_routes,omitempty"`
}

// DefaultMaxRoutes is the route-set size used when a wire request does
// not name one; MaxRoutesLimit is the largest a client may ask for, which
// bounds both a Yen run and the network's per-pair route memo.
const (
	DefaultMaxRoutes = 3
	MaxRoutesLimit   = 8
)

// maxRequestBytes caps a quote/admit body: a wire request is ~150 bytes.
const maxRequestBytes = 4 << 10

type wireSegment struct {
	Bytes float64 `json:"bytes"`
	Price float64 `json:"price"`
	Route int     `json:"route"`
	Time  int     `json:"time"`
}

type wireQuoteResponse struct {
	Epoch    uint64        `json:"epoch"`
	Cap      float64       `json:"cap"`
	Segments []wireSegment `json:"segments"`
}

type wireAlloc struct {
	Route int     `json:"route"`
	Time  int     `json:"time"`
	Bytes float64 `json:"bytes"`
}

type wireAdmitResponse struct {
	Epoch      uint64      `json:"epoch"`
	Admitted   bool        `json:"admitted"`
	Bought     float64     `json:"bought,omitempty"`
	Guaranteed float64     `json:"guaranteed,omitempty"`
	Payment    float64     `json:"payment,omitempty"`
	Lambda     float64     `json:"lambda,omitempty"`
	Allocs     []wireAlloc `json:"allocs,omitempty"`
}

type wirePublishRequest struct {
	// BasePrice, when present, replaces the full price matrix
	// ([edge][step], tiled forward if narrower than the horizon).
	BasePrice [][]float64 `json:"base_price,omitempty"`
	// Reserved, when present, replaces the reservation plan and makes
	// the publish adopt it (a SAM re-plan rather than a PC refresh).
	Reserved [][]float64 `json:"reserved,omitempty"`
}

type wireEpochResponse struct {
	Epoch uint64 `json:"epoch"`
}

type wireErrorResponse struct {
	Error string `json:"error"`
}

type wireStateResponse struct {
	Epoch   uint64 `json:"epoch"`
	Horizon int    `json:"horizon"`
	Edges   int    `json:"edges"`
	Nodes   int    `json:"nodes"`
}

// Handler serves the admission API over HTTP:
//
//	POST /v1/quote   — price a transfer (lock-free, non-binding)
//	POST /v1/admit   — admit a transfer (serialized, binding)
//	POST /v1/publish — install the next pricing epoch
//	GET  /v1/state   — epoch / topology summary
//	GET  /metrics    — obs registry snapshot (when configured)
func Handler(svc *Service, m *obs.Metrics) http.Handler {
	h := &httpServer{svc: svc, m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/quote", h.quote)
	mux.HandleFunc("POST /v1/admit", h.admit)
	mux.HandleFunc("POST /v1/publish", h.publish)
	mux.HandleFunc("GET /v1/state", h.state)
	mux.HandleFunc("GET /metrics", h.metrics)
	return mux
}

type httpServer struct {
	svc *Service
	m   *obs.Metrics
}

// wireScratch is one quote/admit's working memory, pooled across
// requests: decode target, resolved request, reply and output buffer.
// Nothing in it outlives the handler call — menus and admissions are
// copied into the reply, and the reply is written before the scratch
// returns to the pool.
type wireScratch struct {
	in     wireRequest
	req    traffic.Request
	quote  wireQuoteResponse
	admit  wireAdmitResponse
	segs   []wireSegment
	allocs []wireAlloc
	out    bytes.Buffer
	enc    *json.Encoder // writes to out
}

var wirePool = sync.Pool{New: func() any {
	s := new(wireScratch)
	s.enc = json.NewEncoder(&s.out)
	return s
}}

var jsonContentType = []string{"application/json"}

// decodeBody decodes exactly one JSON object of at most limit bytes from
// the request body into v, rejecting unknown fields and trailing data.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: trailing data after JSON object")
	}
	return nil
}

// decodeRequest resolves a wire request into s.req with its admissible
// route set — a lookup in the network's route memo, not a search, for
// every pair seen before.
func (h *httpServer) decodeRequest(w http.ResponseWriter, r *http.Request, s *wireScratch) error {
	s.in = wireRequest{}
	if err := decodeBody(w, r, maxRequestBytes, &s.in); err != nil {
		return err
	}
	in := &s.in
	net := h.svc.Net()
	src, ok := net.NodeByName(in.Src)
	if !ok {
		return fmt.Errorf("unknown src node %q", in.Src)
	}
	dst, ok := net.NodeByName(in.Dst)
	if !ok {
		return fmt.Errorf("unknown dst node %q", in.Dst)
	}
	if src == dst {
		return fmt.Errorf("src and dst are the same node")
	}
	if in.Start < 0 || in.End < in.Start || in.Start >= h.svc.Horizon() {
		return fmt.Errorf("window [%d,%d] outside horizon %d", in.Start, in.End, h.svc.Horizon())
	}
	if in.Demand <= 0 {
		return fmt.Errorf("demand must be positive")
	}
	k := in.MaxRoutes
	if k > MaxRoutesLimit {
		return fmt.Errorf("max_routes %d exceeds the limit of %d", k, MaxRoutesLimit)
	}
	if k <= 0 {
		k = DefaultMaxRoutes
	}
	s.req = traffic.Request{
		ID: in.ID, Src: src, Dst: dst, Routes: net.KShortestPaths(src, dst, k),
		Arrival: in.Start, Start: in.Start, End: in.End,
		Demand: in.Demand, Value: in.Value, Kind: traffic.ByteRequest,
	}
	return nil
}

// reply encodes v through the scratch's buffer and writes it as a 200.
func (s *wireScratch) reply(w http.ResponseWriter, v any) {
	s.out.Reset()
	_ = s.enc.Encode(v) // a bytes.Buffer write cannot fail
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.out.Bytes()) // a failed write is a gone client
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, wireErrorResponse{Error: err.Error()})
}

func (h *httpServer) quote(w http.ResponseWriter, r *http.Request) {
	s := wirePool.Get().(*wireScratch)
	defer wirePool.Put(s)
	if err := h.decodeRequest(w, r, s); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	menu, epoch := h.svc.quoteEpoch(&s.req, s.req.Demand)
	s.quote = wireQuoteResponse{Epoch: epoch, Cap: menu.Cap()}
	s.segs = s.segs[:0]
	for _, sg := range menu.Segments {
		s.segs = append(s.segs, wireSegment{Bytes: sg.Bytes, Price: sg.Price, Route: sg.RouteIdx, Time: sg.Time})
	}
	if len(s.segs) > 0 { // an empty menu stays "segments":null on the wire
		s.quote.Segments = s.segs
	}
	s.reply(w, &s.quote)
}

func (h *httpServer) admit(w http.ResponseWriter, r *http.Request) {
	s := wirePool.Get().(*wireScratch)
	defer wirePool.Put(s)
	if err := h.decodeRequest(w, r, s); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	adm, epoch := h.svc.admitEpoch(&s.req)
	out := &s.admit
	*out = wireAdmitResponse{Epoch: epoch}
	if adm != nil {
		out.Admitted = true
		out.Bought = adm.Bought
		out.Guaranteed = adm.Guaranteed
		out.Payment = adm.Payment
		out.Lambda = adm.Lambda
		s.allocs = s.allocs[:0]
		for _, a := range adm.Allocs {
			s.allocs = append(s.allocs, wireAlloc{Route: a.RouteIdx, Time: a.Time, Bytes: a.Bytes})
		}
		out.Allocs = s.allocs
	}
	s.reply(w, out)
}

func (h *httpServer) publish(w http.ResponseWriter, r *http.Request) {
	// Two [edge][step] matrices of float64s at up to ~25 bytes a number.
	limit := maxRequestBytes + 64*int64(h.svc.Net().NumEdges())*int64(h.svc.Horizon())
	var in wirePublishRequest
	if err := decodeBody(w, r, limit, &in); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A negative price quotes negative payments; a negative reservation
	// reports room above capacity. JSON carries no NaN, so that is all.
	for _, m := range [][][]float64{in.BasePrice, in.Reserved} {
		for e, row := range m {
			if t := slices.IndexFunc(row, func(v float64) bool { return v < 0 }); t >= 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("serve: publish has negative entry %v at edge %d, step %d", row[t], e, t))
				return
			}
		}
	}
	var plan *pricing.State
	adopt := false
	if in.BasePrice != nil || in.Reserved != nil {
		// Overlay the provided fields on the current live picture so a
		// price-only publish keeps set-asides, outages, and room intact.
		plan = h.svc.DrainState()
		if in.BasePrice != nil {
			if err := plan.SetPricesWindow(0, in.BasePrice); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		if in.Reserved != nil {
			if err := plan.SetReserved(in.Reserved); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			adopt = true
		}
	}
	// The number comes from the publish itself: a second Epoch() read
	// would report a concurrent publish's epoch as this one's.
	epoch, err := h.svc.publish(plan, adopt)
	if err != nil {
		// Publish fails only on a plan of the wrong shape — the client's.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, wireEpochResponse{Epoch: epoch})
}

func (h *httpServer) state(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wireStateResponse{
		Epoch:   h.svc.Epoch(),
		Horizon: h.svc.Horizon(),
		Edges:   h.svc.Net().NumEdges(),
		Nodes:   h.svc.Net().NumNodes(),
	})
}

func (h *httpServer) metrics(w http.ResponseWriter, r *http.Request) {
	if h.m == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("metrics not configured"))
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	_ = h.m.WriteJSON(w)
}
