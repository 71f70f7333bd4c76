package graph

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteCSV serializes a network as two CSV sections separated by a blank
// line: nodes ("name,region") then edges
// ("from,to,capacity,usage_priced,cost_per_unit"). Together with the
// trace CSV support in internal/traffic this lets the whole evaluation
// run on user-supplied topologies.
func (n *Network) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"name", "region"}); err != nil {
		return err
	}
	for _, nd := range n.nodes {
		if err := cw.Write([]string{nd.Name, nd.Region}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if _, err := bw.WriteString("\n"); err != nil {
		return err
	}
	cw = csv.NewWriter(bw)
	if err := cw.Write([]string{"from", "to", "capacity", "usage_priced", "cost_per_unit"}); err != nil {
		return err
	}
	for _, e := range n.edges {
		rec := []string{
			n.nodes[e.From].Name,
			n.nodes[e.To].Name,
			strconv.FormatFloat(e.Capacity, 'g', -1, 64),
			strconv.FormatBool(e.UsagePriced),
			strconv.FormatFloat(e.CostPerUnit, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a network written by WriteCSV. Every capacity must be
// finite and positive, and every usage-priced edge's cost finite and
// non-negative: they become the right-hand sides and objective
// coefficients of the scheduling LPs.
func ReadCSV(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	n := New()

	// Nodes section.
	cr := csv.NewReader(sectionReader{br})
	cr.FieldsPerRecord = 2
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("graph: reading node header: %w", err)
	}
	if header[0] != "name" {
		return nil, fmt.Errorf("graph: unexpected node header %v", header)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("graph: reading nodes: %w", err)
		}
		if _, dup := n.byName[rec[0]]; dup {
			return nil, fmt.Errorf("graph: duplicate node %q", rec[0])
		}
		n.AddNode(rec[0], rec[1])
	}

	// Edges section.
	cr = csv.NewReader(br)
	cr.FieldsPerRecord = 5
	header, err = cr.Read()
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge header: %w", err)
	}
	if header[0] != "from" {
		return nil, fmt.Errorf("graph: unexpected edge header %v", header)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("graph: reading edges: %w", err)
		}
		from, ok1 := n.byName[rec[0]]
		to, ok2 := n.byName[rec[1]]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("graph: edge references unknown node in %v", rec)
		}
		capacity, err1 := strconv.ParseFloat(rec[2], 64)
		priced, err2 := strconv.ParseBool(rec[3])
		cost, err3 := strconv.ParseFloat(rec[4], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: malformed edge row %v", rec)
		}
		if !(capacity > 0) || math.IsInf(capacity, 1) {
			return nil, fmt.Errorf("graph: capacity not finite and positive in %v", rec)
		}
		if priced && (!(cost >= 0) || math.IsInf(cost, 1)) {
			return nil, fmt.Errorf("graph: usage cost not finite and non-negative in %v", rec)
		}
		if from == to {
			return nil, fmt.Errorf("graph: self-loop edge in %v", rec)
		}
		id := n.AddEdge(from, to, capacity)
		if priced {
			n.SetUsagePriced(id, cost)
		}
	}
	if n.NumNodes() == 0 {
		return nil, fmt.Errorf("graph: empty topology")
	}
	return n, nil
}

// sectionReader reads from the underlying reader until (and consuming) a
// blank line, then reports EOF — so a csv.Reader can parse one section of
// a multi-section file without swallowing the rest.
type sectionReader struct {
	br *bufio.Reader
}

func (s sectionReader) Read(p []byte) (int, error) {
	line, err := s.br.ReadBytes('\n')
	if len(line) > 0 && (len(line) == 1 && line[0] == '\n') {
		return 0, io.EOF
	}
	n := copy(p, line)
	if n < len(line) {
		// p was too small; unread the remainder. bufio guarantees at
		// least one ReadBytes worth of buffer, and csv.Reader passes
		// large buffers, so this path is effectively unreachable; fail
		// loudly if it ever happens.
		return n, fmt.Errorf("graph: csv line longer than read buffer")
	}
	return n, err
}
