package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Times are nanoseconds since the tracer's epoch. Parent is the index of
// the enclosing span in the same tracer, or -1. ID ties together the
// spans of one request or one timestep.
type span struct {
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	ID       int64  `json:"id"`
	Parent   int32  `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, which
// is how a pass with tracing off runs the same code as a traced one. A
// tracer belongs to one goroutine: the parent of a new span is whichever
// span that goroutine opened last and has not closed.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int32
}

func newTracer(workload string, epoch time.Time, capacity int) *tracer {
	return &tracer{workload: workload, epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(layer, name string, id int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Layer: layer, Name: name, Workload: t.workload, ID: id, Parent: parent})
	t.open = append(t.open, i)
	t.spans[i].Start = int64(time.Since(t.epoch))
	return i
}

// end closes the span begin returned. Spans close in the reverse of the
// order they opened.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// layerTime is what one layer's spans add up to.
type layerTime struct {
	Count int64
	// Total is the summed duration of the layer's spans; Self is Total
	// minus the time their child spans cover.
	Total, Self time.Duration
}

// selfTimes returns each span's duration minus the duration of its
// direct children. Children of one parent never overlap (one goroutine,
// stack discipline), so their durations simply add.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// byLayer sums span counts, durations and self times per layer.
func byLayer(spans []span) map[string]layerTime {
	out := make(map[string]layerTime)
	self := selfTimes(spans)
	for i, s := range spans {
		lt := out[s.Layer]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(self[i])
		out[s.Layer] = lt
	}
	return out
}

// durations returns, in milliseconds, the duration of every span with
// the given layer and name.
func durations(spans []span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans writes the spans of several tracers to path as one JSON
// array, ordered by start time.
func writeSpans(path string, tracers ...*tracer) error {
	// Parent indices are per tracer and lose their meaning once merged;
	// rewrite them as positions in the merged, sorted array.
	type keyed struct {
		s      span
		tracer int
		index  int32
	}
	var ks []keyed
	for ti, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			ks = append(ks, keyed{s, ti, int32(i)})
		}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].s.Start < ks[b].s.Start })
	pos := make(map[[2]int32]int32, len(ks))
	for i, k := range ks {
		pos[[2]int32{int32(k.tracer), k.index}] = int32(i)
	}
	out := make([]span, len(ks))
	for i, k := range ks {
		out[i] = k.s
		if k.s.Parent >= 0 {
			out[i].Parent = pos[[2]int32{int32(k.tracer), k.s.Parent}]
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
