package traffic

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Parsed-trace size bounds: a malformed (or hostile) trace must not be
// able to request an absurd allocation via a single huge step or node
// index. The cell cap is ~64M matrix entries (512 MB of float64), two
// orders of magnitude above the paper-scale setup (168 steps x 105
// nodes ~ 1.9M cells).
const (
	maxTraceNodes = 1 << 16
	maxTraceCells = 1 << 26
)

// WriteSeriesCSV serializes a traffic-matrix time-series as CSV rows
// "step,src,dst,volume" (zero entries omitted). The paper's evaluation
// replays *recorded* traces; this format lets experiments run from saved
// traces instead of regenerating them.
func WriteSeriesCSV(w io.Writer, s Series) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"step", "src", "dst", "volume"}); err != nil {
		return err
	}
	for t, m := range s {
		for src, row := range m.Demand {
			for dst, v := range row {
				if v == 0 {
					continue
				}
				rec := []string{
					strconv.Itoa(t),
					strconv.Itoa(src),
					strconv.Itoa(dst),
					strconv.FormatFloat(v, 'g', -1, 64),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSeriesCSV parses a series written by WriteSeriesCSV. The node count
// and step count are inferred from the data; steps with no traffic still
// appear (as zero matrices) up to the maximum step index present.
func ReadSeriesCSV(r io.Reader) (Series, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("traffic: reading CSV header: %w", err)
	}
	if header[0] != "step" {
		return nil, fmt.Errorf("traffic: unexpected CSV header %v", header)
	}
	type rec struct {
		t, src, dst int
		v           float64
	}
	var recs []rec
	maxStep, maxNode := -1, -1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("traffic: reading CSV: %w", err)
		}
		t, err1 := strconv.Atoi(row[0])
		src, err2 := strconv.Atoi(row[1])
		dst, err3 := strconv.Atoi(row[2])
		v, err4 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("traffic: malformed CSV row %v", row)
		}
		if t < 0 || src < 0 || dst < 0 || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("traffic: negative or non-finite field in CSV row %v", row)
		}
		if src == dst {
			return nil, fmt.Errorf("traffic: self-demand in CSV row %v", row)
		}
		recs = append(recs, rec{t, src, dst, v})
		if t > maxStep {
			maxStep = t
		}
		if src > maxNode {
			maxNode = src
		}
		if dst > maxNode {
			maxNode = dst
		}
	}
	if maxStep < 0 {
		return nil, fmt.Errorf("traffic: empty trace")
	}
	nodes := int64(maxNode) + 1
	if nodes > maxTraceNodes || int64(maxStep)+1 > maxTraceCells/(nodes*nodes) {
		return nil, fmt.Errorf("traffic: trace dimensions too large (%d steps, %d nodes)", maxStep+1, nodes)
	}
	s := make(Series, maxStep+1)
	for t := range s {
		s[t] = NewMatrix(maxNode + 1)
	}
	for _, rc := range recs {
		d := s[rc.t].Demand[rc.src]
		d[rc.dst] += rc.v
		if math.IsInf(d[rc.dst], 0) {
			return nil, fmt.Errorf("traffic: volume overflow at step %d, %d->%d", rc.t, rc.src, rc.dst)
		}
	}
	return s, nil
}
