package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pretium/internal/graph"
	"pretium/internal/obs"
	"pretium/internal/pricing"
	"pretium/internal/serve"
	"pretium/internal/traffic"
)

const (
	admitWorkers = 2 // closed-loop callers: each waits for its answer before asking again
	admitWarmup  = time.Second
	// In process one op in admitSampleEvery is timed, so that the clock
	// reads stay off the path of the other seven; over HTTP every request
	// is timed, two clock reads being nothing next to a round trip.
	admitSampleEvery = 8
	admitMaxSamples  = 1 << 19 // per worker and kind, preallocated
	// The admission set-up is the heaviest of the four, 60 to 80 ms, so it
	// is repeated the fewest times.
	admitSetupRepeats = 7
)

// decision is what a caller learns from one admit.
type decision struct {
	accepted        bool
	bought, payment float64
	// volume is the room the admission reserved: bytes × hops, summed
	// over its allocations.
	volume float64
}

// frontEnd is one way of reaching an admission service: straight calls,
// HTTP, or the one-mutex baseline. ok is false when the op failed — an
// HTTP reply that is not 200 or does not decode; a straight call cannot
// fail, a decline being an answer.
type frontEnd interface {
	quote(i int) (ok bool)
	admit(i int) (d decision, ok bool)
	publish() error
	epoch() uint64
}

// volumeOf is the room an allocation takes: its bytes on every hop.
func volumeOf(req *traffic.Request, route int, bytes float64) float64 {
	return bytes * float64(len(req.Routes[route]))
}

// ---- straight calls into serve.Service ----

type direct struct {
	svc   *serve.Service
	reqs  []*traffic.Request
	fresh *pricing.State
}

func (d *direct) quote(i int) bool {
	r := d.reqs[i]
	d.svc.Quote(r, r.Demand)
	return true
}

func (d *direct) admit(i int) (decision, bool) {
	r := d.reqs[i]
	adm := d.svc.Admit(r)
	if adm == nil {
		return decision{}, true
	}
	out := decision{accepted: true, bought: adm.Bought, payment: adm.Payment}
	for _, a := range adm.Allocs {
		out.volume += volumeOf(r, a.RouteIdx, a.Bytes)
	}
	return out, true
}

// publish installs a plan with every reservation cleared, adopting its
// room: what the service sees when SAM has re-planned and the admitted
// bytes have been delivered.
func (d *direct) publish() error { return d.svc.Publish(d.fresh, true) }
func (d *direct) epoch() uint64  { return d.svc.Epoch() }

// ---- the same service behind serve.Handler on a loopback socket ----

type overHTTP struct {
	direct // publishes and epoch reads stay in process
	url    string
	bodies [][]byte
	client *http.Client
	buf    bytes.Buffer
}

type wireQuoteReply struct {
	Epoch    uint64  `json:"epoch"`
	Cap      float64 `json:"cap"`
	Segments []struct {
		Bytes, Price float64
		Route, Time  int
	} `json:"segments"`
}

type wireAdmitReply struct {
	Epoch      uint64  `json:"epoch"`
	Admitted   bool    `json:"admitted"`
	Bought     float64 `json:"bought"`
	Guaranteed float64 `json:"guaranteed"`
	Payment    float64 `json:"payment"`
	Lambda     float64 `json:"lambda"`
	Allocs     []struct {
		Route, Time int
		Bytes       float64
	} `json:"allocs"`
}

// post sends body i to path and decodes the reply into out.
func (h *overHTTP) post(path string, i int, out any) bool {
	resp, err := h.client.Post(h.url+path, "application/json", bytes.NewReader(h.bodies[i]))
	if err != nil {
		return false
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	return json.Unmarshal(h.buf.Bytes(), out) == nil
}

func (h *overHTTP) quote(i int) bool {
	var reply wireQuoteReply
	return h.post("/v1/quote", i, &reply)
}

func (h *overHTTP) admit(i int) (decision, bool) {
	var reply wireAdmitReply
	if !h.post("/v1/admit", i, &reply) {
		return decision{}, false
	}
	out := decision{accepted: reply.Admitted, bought: reply.Bought, payment: reply.Payment}
	for _, a := range reply.Allocs {
		if a.Route < 0 || a.Route >= len(h.reqs[i].Routes) {
			return decision{}, false
		}
		out.volume += volumeOf(h.reqs[i], a.Route, a.Bytes)
	}
	return out, true
}

// ---- one mutex around the serial admitter ----

// lockBaseline is the simplest design that could serve the same calls:
// admits take one sync.Mutex around a serial pricing.Admitter, quotes
// read a sealed copy made at the last publish. The roadmap asks what the
// sequencer and the shards buy over it.
type lockBaseline struct {
	mu    sync.Mutex
	adm   *pricing.Admitter
	view  atomic.Pointer[pricing.State]
	n     atomic.Uint64
	reqs  []*traffic.Request
	fresh *pricing.State
}

func newLockBaseline(reqs []*traffic.Request, fresh *pricing.State) *lockBaseline {
	l := &lockBaseline{reqs: reqs, fresh: fresh}
	if err := l.publish(); err != nil {
		panic(err)
	}
	return l
}

func (l *lockBaseline) quote(i int) bool {
	r := l.reqs[i]
	pricing.QuoteMenu(l.view.Load(), r, r.Demand)
	return true
}

func (l *lockBaseline) admit(i int) (decision, bool) {
	r := l.reqs[i]
	l.mu.Lock()
	adm := l.adm.Admit(r)
	l.mu.Unlock()
	if adm == nil {
		return decision{}, true
	}
	return decision{accepted: true, bought: adm.Bought, payment: adm.Payment}, true
}

func (l *lockBaseline) publish() error {
	st := l.fresh.Clone()
	view := st.Clone()
	view.Seal()
	l.mu.Lock()
	l.adm = pricing.NewAdmitter(st)
	l.view.Store(view)
	l.mu.Unlock()
	l.n.Add(1)
	return nil
}

func (l *lockBaseline) epoch() uint64 { return l.n.Load() }

// ---- the rig: inputs, service, and (over HTTP) a listener ----

type admitRig struct {
	http    bool
	in      *admitInput
	svc     *serve.Service
	metrics *obs.Metrics
	fresh   *pricing.State
	bodies  [][]byte
	ln      net.Listener
	srv     *http.Server
	served  chan struct{}
	clients []*http.Client
}

// newAdmitRig is the workload's set-up: topology, traffic, request
// synthesis, pricing state, service and, over HTTP, request bodies and
// a listening server. metrics is nil on the untraced pass, which leaves
// the service's own counters off.
func newAdmitRig(seed int64, overHTTP bool, metrics *obs.Metrics, tr *tracer) (*admitRig, error) {
	rig := &admitRig{http: overHTTP, metrics: metrics}
	rig.in = genAdmit(seed, tr)
	if len(rig.in.reqs) < admitPrefix {
		return nil, fmt.Errorf("stream has %d requests, fewer than the %d-request prefix", len(rig.in.reqs), admitPrefix)
	}
	sp := tr.begin("pricing", "NewState", 0)
	st := pricing.NewState(rig.in.net, admitHorizon, admitBasePrice)
	rig.fresh = st.Clone()
	tr.end(sp)
	cfg := serve.Config{Obs: metrics}
	optIn(&cfg, "Shards", 8)
	sp = tr.begin("serve", "New", 0)
	svc, err := serve.New(st, cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rig.svc = svc
	if !overHTTP {
		return rig, nil
	}
	rig.bodies = rig.in.wireBodies()
	rig.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.srv = &http.Server{Handler: serve.Handler(svc, metrics)}
	rig.served = make(chan struct{})
	go func() {
		defer close(rig.served)
		rig.srv.Serve(rig.ln) // returns once close() shuts the server
	}()
	return rig, nil
}

// close stops the HTTP server, if any, and waits for it to have ended.
func (rig *admitRig) close() {
	for _, c := range rig.clients {
		c.CloseIdleConnections()
	}
	if rig.srv != nil {
		rig.srv.Close()
		<-rig.served
	}
}

// frontEnd returns a caller's way in. Each HTTP caller gets a client of
// its own holding one keep-alive connection.
func (rig *admitRig) frontEnd() frontEnd {
	d := direct{svc: rig.svc, reqs: rig.in.reqs, fresh: rig.fresh}
	if !rig.http {
		return &d
	}
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	rig.clients = append(rig.clients, c)
	return &overHTTP{direct: d, url: "http://" + rig.ln.Addr().String(), bodies: rig.bodies, client: c}
}

// ---- the closed loop ----

// caller is one closed-loop worker's tally.
type caller struct {
	ops, admits, accepted, failed int64
	quoteNS, admitNS, publishNS   []float64
	// Room bookkeeping for the conservation check. An admit whose epoch
	// read the same before and after it certainly landed in that epoch;
	// one that straddles a publish may have landed on either side.
	epoch           uint64
	sure, ambiguous float64
	tr              *tracer
}

func newCaller(sampling bool, tr *tracer) *caller {
	c := &caller{tr: tr}
	if sampling {
		c.quoteNS = make([]float64, 0, admitMaxSamples)
		c.admitNS = make([]float64, 0, admitMaxSamples)
	}
	return c
}

// phase is one stretch of closed-loop load.
type phase struct {
	callers []*caller
	seconds float64
}

func (p *phase) ops() (n int64) {
	for _, c := range p.callers {
		n += c.ops
	}
	return n
}

func (p *phase) failed() (n int64) {
	for _, c := range p.callers {
		n += c.failed
	}
	return n
}

func (p *phase) opsPerSecond() float64 { return float64(p.ops()) / p.seconds }

func (p *phase) samples(pick func(*caller) []float64) []float64 {
	var out []float64
	for _, c := range p.callers {
		out = append(out, pick(c)...)
	}
	return out
}

// drive runs one closed-loop caller per front end for d: nine quotes to
// one admit, each caller starting at its own offset into the
// stream, caller 0 publishing a fresh plan every admitPublishEvery of
// its ops. sampleEvery of 0 turns latency sampling off. Tracers, when
// given, are one per caller and get a span per sampled op. Every phase
// starts from a fresh plan, so that the room check at its end has only
// this phase's admissions to account for.
func drive(fronts []frontEnd, nreqs int, d time.Duration, sampleEvery int, tracers []*tracer) (*phase, error) {
	if err := fronts[0].publish(); err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}
	p := &phase{}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w, fe := range fronts {
		var tr *tracer
		if tracers != nil {
			tr = tracers[w]
		}
		c := newCaller(sampleEvery > 0, tr)
		p.callers = append(p.callers, c)
		wg.Add(1)
		go func(w int, fe frontEnd) {
			defer wg.Done()
			c.loop(fe, w, len(fronts), nreqs, sampleEvery, &stop)
		}(w, fe)
	}
	start := time.Now()
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	p.seconds = time.Since(start).Seconds()
	return p, nil
}

func (c *caller) loop(fe frontEnd, w, workers, nreqs, sampleEvery int, stop *atomic.Bool) {
	i := w * nreqs / workers
	for n := int64(1); !stop.Load(); n++ {
		isAdmit := n%admitEvery == 0
		sample := sampleEvery > 0 && n%int64(sampleEvery) == 0
		var t0 time.Time
		var sp int32
		if sample {
			name := "Service.Quote"
			if isAdmit {
				name = "Service.Admit"
			}
			sp = c.tr.begin("serve", name, n)
			t0 = time.Now()
		}
		ok := true
		if isAdmit {
			e0 := fe.epoch()
			var d decision
			d, ok = fe.admit(i)
			e1 := fe.epoch()
			c.admits++
			if d.accepted {
				c.accepted++
			}
			if e1 != c.epoch {
				c.epoch, c.sure, c.ambiguous = e1, 0, 0
			}
			if e0 == e1 {
				c.sure += d.volume
			} else {
				c.ambiguous += d.volume
			}
		} else {
			ok = fe.quote(i)
		}
		if sample {
			ns := float64(time.Since(t0))
			c.tr.end(sp)
			if isAdmit && len(c.admitNS) < cap(c.admitNS) {
				c.admitNS = append(c.admitNS, ns)
			} else if !isAdmit && len(c.quoteNS) < cap(c.quoteNS) {
				c.quoteNS = append(c.quoteNS, ns)
			}
		}
		c.ops++
		if !ok {
			c.failed++
		}
		if i++; i == nreqs {
			i = 0
		}
		if w == 0 && n%admitPublishEvery == 0 {
			sp := c.tr.begin("serve", "Service.Publish", n)
			t0 := time.Now()
			err := fe.publish()
			c.publishNS = append(c.publishNS, float64(time.Since(t0)))
			c.tr.end(sp)
			if err != nil {
				c.failed++
			}
		}
	}
}

// ---- output checks ----

// checkPrefix pushes the first admitPrefix requests through the front
// end one at a time and through a serial pricing.Admitter on a state of
// its own, and demands the same decision and the same payment for every
// one, then the same reserved room in every (edge, step) cell. It
// returns the value customers bought, Σ v_i·x_i, which is the
// workload's welfare figure: it depends on the seed alone.
func checkPrefix(rep *report, rig *admitRig, fe frontEnd) float64 {
	serialState := pricing.NewState(rig.in.net, admitHorizon, admitBasePrice)
	serial := pricing.NewAdmitter(serialState)
	value := 0.0
	mismatches := 0
	for i := 0; i < admitPrefix; i++ {
		r := rig.in.reqs[i]
		want := serial.Admit(r)
		got, ok := fe.admit(i)
		rep.count(1, 1-b2i(ok))
		switch {
		case !ok:
			mismatches++
		case want == nil:
			if got.accepted {
				mismatches++
			}
		default:
			value += r.Value * want.Bought
			if !got.accepted || math.Float64bits(got.bought) != math.Float64bits(want.Bought) ||
				math.Float64bits(got.payment) != math.Float64bits(want.Payment) {
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		rep.fail("%d of the first %d admissions differ from the serial admitter's", mismatches, admitPrefix)
	}
	live := rig.svc.DrainState()
	for e := range live.Reserved {
		for t, got := range live.Reserved[e] {
			if math.Float64bits(got) != math.Float64bits(serialState.Reserved[e][t]) {
				rep.fail("after the prefix, reserved room on edge %d step %d is %v, serial admitter has %v",
					e, t, got, serialState.Reserved[e][t])
				return value
			}
		}
	}
	return value
}

// checkRoom is the conservation check at the end of a phase: with every
// caller stopped, no cell of the live state is below zero or above
// capacity, and the room committed since the last publish is the room
// the callers were told they got since it.
func checkRoom(rep *report, rig *admitRig, p *phase) {
	live := rig.svc.DrainState()
	total := 0.0
	for e := range live.Reserved {
		for t, r := range live.Reserved[e] {
			if r < -1e-9 || r > live.Capacity(graph.EdgeID(e), t)+1e-6 {
				rep.fail("edge %d step %d holds %v reserved of capacity %v", e, t, r, live.Capacity(graph.EdgeID(e), t))
				return
			}
			total += r
		}
	}
	last := rig.svc.Epoch()
	sure, ambiguous := 0.0, 0.0
	for _, c := range p.callers {
		if c.epoch == last {
			sure += c.sure
			ambiguous += c.ambiguous
		}
	}
	tol := 1e-9 * (1 + total)
	if total < sure-tol || total > sure+ambiguous+tol {
		rep.fail("room committed since the last publish is %v; admissions since it reserved between %v and %v",
			total, sure, sure+ambiguous)
	}
}

// ---- the passes ----

func admitFronts(rig *admitRig, n int) []frontEnd {
	fronts := make([]frontEnd, n)
	for i := range fronts {
		fronts[i] = rig.frontEnd()
	}
	return fronts
}

// admitSetups times the set-up admitSetupRepeats times and returns the
// last rig.
func admitSetups(rep *report, cfg runConfig, overHTTP bool, metrics *obs.Metrics, tr *tracer) (*admitRig, []float64) {
	var rig *admitRig
	var setups []float64
	for k := 0; k < admitSetupRepeats; k++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		// Only the last set-up is traced, so its spans are the rig's.
		var t *tracer
		if k == admitSetupRepeats-1 {
			t = tr
		}
		rig, err = newAdmitRig(cfg.seed, overHTTP, metrics, t)
		if err != nil {
			rep.fail("set-up: %v", err)
			return nil, nil
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return rig, setups
}

// admitSlices is how many slices of each kind the untraced pass cuts its
// run into. A neighbour on the shared host slows this workload by a
// third for seconds at a time (README.md, "Noise"); a metric taken over
// the whole run lands between the two speeds, wherever the mix of that
// run happened to put it. Cut in slices, the run reports the quartile of
// its slices on the good side, which is the undisturbed speed as long as
// a quarter of the run was undisturbed.
const admitSlices = 8

// goodQuartile is the first quartile of xs when lower is better and the
// third when higher is.
func goodQuartile(xs []float64, better string) float64 {
	q1, _, q3 := quartiles(xs)
	if better == higher {
		return q3
	}
	return q1
}

// admitUntraced is the end-to-end pass of both admission workloads:
// prefix check, one second of warm-up, then slices alternating between
// latency sampling off, for the throughput figure, and on, for the
// latencies, with the room check after every slice that can be checked.
func admitUntraced(cfg runConfig, overHTTP bool) *report {
	rep := newReport(cfg.workload, cfg.seed, false)
	rig, setups := admitSetups(rep, cfg, overHTTP, nil, nil)
	if rig == nil {
		return rep
	}
	defer rig.close()
	fronts := admitFronts(rig, admitWorkers)
	nreqs := len(rig.in.reqs)

	welfare := checkPrefix(rep, rig, fronts[0])
	slice := time.Duration(cfg.seconds / (2 * admitSlices) * float64(time.Second))
	sampleEvery := admitSampleEvery
	if overHTTP {
		sampleEvery = 1
	}
	if _, err := drive(fronts, nreqs, admitWarmup, 0, nil); err != nil {
		rep.fail("%v", err)
		return rep
	}
	var rate, quoteP50, quoteTail, admitP50, admitTail []float64
	var quoteN, admitN int
	var tailPct float64
	var ops, accepted, attempts int64
	wall := 0.0
	for i := 0; i < admitSlices; i++ {
		through, err := drive(fronts, nreqs, slice, 0, nil)
		if err != nil {
			rep.fail("%v", err)
			return rep
		}
		lat, err := drive(fronts, nreqs, slice, sampleEvery, nil)
		if err != nil {
			rep.fail("%v", err)
			return rep
		}
		checkRoom(rep, rig, lat)
		rep.count(through.ops()+lat.ops(), through.failed()+lat.failed())
		rate = append(rate, through.opsPerSecond())
		ops += through.ops()
		q := summarize(lat.samples(func(c *caller) []float64 { return c.quoteNS }), 90)
		a := summarize(lat.samples(func(c *caller) []float64 { return c.admitNS }), 90)
		quoteP50, quoteTail = append(quoteP50, q.P50/1e3), append(quoteTail, q.Tail/1e3)
		admitP50, admitTail = append(admitP50, a.P50/1e3), append(admitTail, a.Tail/1e3)
		quoteN, admitN, tailPct = quoteN+q.N, admitN+a.N, a.TailPct
		for _, c := range append(through.callers, lat.callers...) {
			accepted += c.accepted
			attempts += c.admits
		}
		wall += through.seconds + lat.seconds
	}

	where := fmt.Sprintf("in process; good-side quartile of %d slices", admitSlices)
	if overHTTP {
		where = fmt.Sprintf("over loopback HTTP, client side; good-side quartile of %d slices", admitSlices)
	}
	rep.set("setup_s", median(setups), len(setups))
	rep.setNote("ops_per_s", goodQuartile(rate, higher), int(ops),
		fmt.Sprintf("quotes and admits completed per second by %d closed-loop callers, sampling off; good-side quartile of %d slices", admitWorkers, admitSlices))
	rep.setNote("op_p50_us", goodQuartile(quoteP50, lower), quoteN, "one quote "+where)
	rep.setNote("op_tail_us", goodQuartile(quoteTail, lower), quoteN, fmt.Sprintf("one quote %s, p%g", where, tailPct))
	rep.setNote("heavy_p50_us", goodQuartile(admitP50, lower), admitN, "one admit "+where)
	rep.setNote("heavy_tail_us", goodQuartile(admitTail, lower), admitN, fmt.Sprintf("one admit %s, p%g", where, tailPct))
	rep.setNote("welfare", welfare, admitPrefix, "value bought, Σ v·x, over the serial prefix")
	rep.Info["accept_share"] = float64(accepted) / float64(attempts)
	rep.Info["requests"] = float64(nreqs)
	rep.Info["wall_s"] = wall
	rep.Info["ops_per_s_median_slice"] = median(rate)
	rep.Info["op_p50_us_median_slice"] = median(quoteP50)
	rep.Info["heavy_p50_us_median_slice"] = median(admitP50)
	return rep
}

// admitTraced is the per-layer pass of both admission workloads.
func admitTraced(cfg runConfig, overHTTP bool) (*report, []*tracer) {
	rep := newReport(cfg.workload, cfg.seed, true)
	epoch := time.Now()
	tr := newTracer(cfg.workload, epoch, 1024)
	metrics := obs.NewMetrics()
	rig, _ := admitSetups(rep, cfg, overHTTP, metrics, tr)
	if rig == nil {
		return rep, nil
	}
	defer rig.close()
	nreqs := len(rig.in.reqs)
	rep.set("graph.paperwan_build_ms", rig.in.buildMS, 1)
	rep.set("traffic.generate_ms", rig.in.generateMS, 1)
	rep.set("traffic.synthesize_ms", rig.in.synthesizeMS, 1)
	rep.set("traffic.requests", float64(nreqs), 1)
	measureKSP(rep, rig.in, tr)

	fronts := admitFronts(rig, admitWorkers)
	checkPrefix(rep, rig, fronts[0])
	sampleEvery := admitSampleEvery
	phases := 4.0
	if overHTTP {
		sampleEvery, phases = 1, 2
	}
	d := time.Duration(cfg.seconds / phases * float64(time.Second))
	callerTracers := make([]*tracer, admitWorkers)
	for w := range callerTracers {
		callerTracers[w] = newTracer(cfg.workload, epoch, 1<<16)
	}
	// run is drive with a failed publish recorded on the report.
	run := func(fronts []frontEnd, d time.Duration, sampleEvery int, tracers []*tracer) *phase {
		p, err := drive(fronts, nreqs, d, sampleEvery, tracers)
		if err != nil {
			rep.fail("%v", err)
			return nil
		}
		rep.count(p.ops(), p.failed())
		return p
	}
	if run(fronts, admitWarmup, 0, nil) == nil {
		return rep, nil
	}
	plain := run(fronts, d, sampleEvery, nil)
	if plain == nil {
		return rep, nil
	}
	checkRoom(rep, rig, plain)
	traced := run(fronts, d, sampleEvery, callerTracers)
	if traced == nil {
		return rep, nil
	}
	checkRoom(rep, rig, traced)
	rep.set("obs.trace_overhead_pct", 100*(plain.opsPerSecond()/traced.opsPerSecond()-1), 1)
	rep.Info["ops_per_s_plain"] = plain.opsPerSecond()
	rep.Info["ops_per_s_traced"] = traced.opsPerSecond()

	admits := traced.samples(func(c *caller) []float64 { return c.admitNS })
	quotes := traced.samples(func(c *caller) []float64 { return c.quoteNS })
	pubs := traced.samples(func(c *caller) []float64 { return c.publishNS })
	pubs = append(pubs, plain.samples(func(c *caller) []float64 { return c.publishNS })...)
	rep.set("serve.publish_us_p50", median(pubs)/1e3, len(pubs))
	sort.Float64s(admits)
	rep.set("serve.admit_ns_p99_2w", quantile(admits, 0.99), len(admits))
	rep.set("serve.admit_ns_p999_2w", quantile(admits, 0.999), len(admits))

	if overHTTP {
		measureHandler(rep, rig, median(quotes)/1e3, tr)
	} else {
		one := run(fronts[:1], d, sampleEvery, nil)
		if one == nil {
			return rep, nil
		}
		rep.set("serve.ops_per_s_1w", one.opsPerSecond(), int(one.ops()))
		rep.set("serve.quote_ns_p50_1w", median(one.callers[0].quoteNS), len(one.callers[0].quoteNS))
		rep.set("serve.admit_ns_p50_1w", median(one.callers[0].admitNS), len(one.callers[0].admitNS))
		rep.set("serve.scale_2w_over_1w", plain.opsPerSecond()/one.opsPerSecond(), 1)

		lock := newLockBaseline(rig.in.reqs, rig.fresh)
		base := run([]frontEnd{lock, lock}, d, sampleEvery, nil)
		if base == nil {
			return rep, nil
		}
		rep.set("serve.lock_baseline_ops_per_s", base.opsPerSecond(), int(base.ops()))
		rep.set("serve.vs_lock_baseline", plain.opsPerSecond()/base.opsPerSecond(), 1)

		measureServeAllocs(rep, rig, fronts[0])
		measurePricing(rep, rig, tr)
	}
	rep.set("serve.publishes", float64(metrics.Counter("serve.publishes").Value()), 1)
	rep.set("serve.quotes", float64(metrics.Counter("serve.quotes").Value()), 1)
	rep.set("serve.admits", float64(metrics.Counter("serve.admits").Value()), 1)
	rep.set("serve.declines", float64(metrics.Counter("serve.declines").Value()), 1)

	all := append([]*tracer{tr}, callerTracers...)
	setLayerSpans(rep, all...)
	return rep, all
}

// measureKSP times the route resolution the HTTP front-end does on every
// request, over the pairs of the first two thousand requests, and counts
// how few distinct pairs the stream has — what a route cache would save.
func measureKSP(rep *report, in *admitInput, tr *tracer) {
	type pair struct{ a, b graph.NodeID }
	distinct := map[pair]bool{}
	for _, r := range in.reqs {
		distinct[pair{r.Src, r.Dst}] = true
	}
	rep.set("graph.ksp_distinct_pair_share", float64(len(distinct))/float64(len(in.reqs)), len(in.reqs))
	var us []float64
	for i := 0; i < 2000 && i < len(in.reqs); i++ {
		r := in.reqs[i]
		sp := tr.begin("graph", "KShortestPaths", int64(i))
		t0 := time.Now()
		in.net.KShortestPaths(r.Src, r.Dst, admitRoutes)
		us = append(us, float64(time.Since(t0))/1e3)
		tr.end(sp)
	}
	rep.set("graph.ksp_us_p50", median(us), len(us))
}

// mallocs runs f and returns how many heap objects and bytes it
// allocated. Nothing else may be running.
func mallocs(f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// measureServeAllocs counts what one quote and one admit through the
// service allocate, on one goroutine.
func measureServeAllocs(rep *report, rig *admitRig, fe frontEnd) {
	const n = 5000
	if err := fe.publish(); err != nil {
		rep.fail("publish: %v", err)
		return
	}
	objs, _ := mallocs(func() {
		for i := 0; i < n; i++ {
			fe.quote(i)
		}
	})
	rep.set("serve.allocs_per_quote", objs/n, n)
	objs, _ = mallocs(func() {
		for i := 0; i < n; i++ {
			fe.admit(i)
		}
	})
	rep.set("serve.allocs_per_admit", objs/n, n)
}

// measurePricing times the serial pricing.Admitter by itself on the same
// stream and mix, one goroutine, every op timed: the floor of what any
// service wrapped around it can reach.
func measurePricing(rep *report, rig *admitRig, tr *tracer) {
	const ops = 200_000
	reqs := rig.in.reqs
	var quoteNS, admitNS, cloneUS []float64
	segments, quotes, accepted, attempts := 0, 0, 0, 0
	var adm *pricing.Admitter
	for n, i := 1, 0; n <= ops; n++ {
		if n%(2*admitPublishEvery) == 1 {
			sp := tr.begin("pricing", "State.Clone", int64(n))
			t0 := time.Now()
			st := rig.fresh.Clone()
			cloneUS = append(cloneUS, float64(time.Since(t0))/1e3)
			tr.end(sp)
			adm = pricing.NewAdmitter(st)
		}
		r := reqs[i]
		if i++; i == len(reqs) {
			i = 0
		}
		// One op in admitSampleEvery gets a span, as in the closed loop.
		sp := int32(-1)
		if n%admitSampleEvery == 0 {
			sp = tr.begin("pricing", "Admitter", int64(n))
		}
		t0 := time.Now()
		if n%admitEvery == 0 {
			a := adm.Admit(r)
			admitNS = append(admitNS, float64(time.Since(t0)))
			attempts++
			if a != nil {
				accepted++
			}
		} else {
			m := adm.Quote(r, r.Demand)
			quoteNS = append(quoteNS, float64(time.Since(t0)))
			segments += len(m.Segments)
			quotes++
		}
		if sp >= 0 {
			tr.end(sp)
		}
	}
	q := summarize(quoteNS, 99)
	a := summarize(admitNS, 99)
	rep.set("pricing.quote_ns_p50", q.P50, q.N)
	rep.set("pricing.quote_ns_p99", quantile(quoteNS, 0.99), q.N)
	rep.set("pricing.admit_ns_p50", a.P50, a.N)
	rep.set("pricing.admit_ns_p99", quantile(admitNS, 0.99), a.N)
	rep.set("pricing.menu_segments_mean", float64(segments)/float64(quotes), quotes)
	rep.set("pricing.accept_share", float64(accepted)/float64(attempts), attempts)
	rep.set("pricing.clone_us_p50", median(cloneUS), len(cloneUS))

	const n = 5000
	adm = pricing.NewAdmitter(rig.fresh.Clone())
	objs, _ := mallocs(func() {
		for i := 0; i < n; i++ {
			adm.Quote(reqs[i], reqs[i].Demand)
		}
	})
	rep.set("pricing.quote_allocs_per_op", objs/n, n)
	objs, bytes := mallocs(func() {
		for i := 0; i < n; i++ {
			adm.Admit(reqs[i])
		}
	})
	rep.set("pricing.admit_allocs_per_op", objs/n, n)
	rep.set("pricing.admit_bytes_per_op", bytes/n, n)
}

// measureHandler drives serve.Handler with no socket under it — an
// httptest recorder per request — so that the difference to the HTTP
// round trip is what the transport costs.
func measureHandler(rep *report, rig *admitRig, httpQuoteP50US float64, tr *tracer) {
	const n = 3000
	h := serve.Handler(rig.svc, rig.metrics)
	var us []float64
	var in, out int64
	serveOne := func(i int) {
		path := "/v1/quote"
		if (i+1)%admitEvery == 0 {
			path = "/v1/admit"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(rig.bodies[i]))
		rec := httptest.NewRecorder()
		sp := tr.begin("serve", "Handler.ServeHTTP", int64(i))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		dt := float64(time.Since(t0)) / 1e3
		tr.end(sp)
		if path == "/v1/quote" {
			us = append(us, dt)
		}
		in += int64(len(rig.bodies[i]))
		out += int64(rec.Body.Len())
		if rec.Code != http.StatusOK {
			rep.fail("handler answered %d to request %d", rec.Code, i)
		}
	}
	objs, _ := mallocs(func() {
		for i := 0; i < n; i++ {
			serveOne(i)
		}
	})
	p50 := median(us)
	rep.set("serve.handler_us_p50", p50, len(us))
	rep.set("serve.http_overhead_us_p50", httpQuoteP50US-p50, len(us))
	rep.set("serve.http_allocs_per_req", objs/n, n)
	rep.set("serve.http_bytes_in_mean", float64(in)/n, n)
	rep.set("serve.http_bytes_out_mean", float64(out)/n, n)
}
