package pricing

import (
	"fmt"
	"math"

	"pretium/internal/graph"
	"pretium/internal/stats"
)

// EstimateHighPriSetAside turns observed high-priority traffic into the
// per-(link, timestep) capacity set-aside of §4.4: for each link and each
// hour-of-day, reserve the given percentile of the historically observed
// high-pri load at that hour, tiled across the horizon. The paper sets
// this aside "based on historical usage [18]" so that latency-sensitive
// traffic that bypasses the TE loop never collides with scheduled
// transfers.
//
// observed is indexed [edge][step] over any whole number of days;
// stepsPerDay defines the diurnal bucketing; pct is the reservation
// percentile (e.g. 95); horizon is the output length in steps.
func EstimateHighPriSetAside(observed [][]float64, stepsPerDay int, pct float64, horizon int) ([][]float64, error) {
	if stepsPerDay <= 0 {
		return nil, fmt.Errorf("pricing: stepsPerDay must be positive")
	}
	if pct < 0 || pct > 100 {
		return nil, fmt.Errorf("pricing: percentile %v outside [0,100]", pct)
	}
	out := make([][]float64, len(observed))
	for e, series := range observed {
		out[e] = make([]float64, horizon)
		if len(series) == 0 {
			continue
		}
		// Bucket by hour-of-day.
		buckets := make([][]float64, stepsPerDay)
		for t, v := range series {
			h := t % stepsPerDay
			buckets[h] = append(buckets[h], v)
		}
		perHour := make([]float64, stepsPerDay)
		for h, b := range buckets {
			if len(b) == 0 {
				continue
			}
			p, err := stats.Percentile(b, pct)
			if err != nil {
				return nil, err
			}
			perHour[h] = p
		}
		for t := 0; t < horizon; t++ {
			out[e][t] = perHour[t%stepsPerDay]
		}
	}
	return out, nil
}

// CheckHighPriMatrix is the one shape-and-cell rule for a high-pri
// matrix over edges links and horizon steps: one row per edge of exactly
// horizon steps, every cell finite and non-negative. SetHighPriMatrix
// applies it; core applies it to the high-pri use it never installs.
func CheckHighPriMatrix(m [][]float64, edges, horizon int) error {
	if len(m) != edges {
		return fmt.Errorf("pricing: high-pri matrix has %d edges, want %d", len(m), edges)
	}
	for e, row := range m {
		if len(row) != horizon {
			return fmt.Errorf("pricing: high-pri row %d has %d steps, want %d", e, len(row), horizon)
		}
		for t, v := range row {
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("pricing: high-pri cell [%d][%d] = %v, want finite and non-negative", e, t, v)
			}
		}
	}
	return nil
}

// SetHighPriMatrix replaces the high-pri set-aside with an explicit
// per-(edge, step) matrix (e.g. from EstimateHighPriSetAside). A matrix
// failing CheckHighPriMatrix is rejected whole; a cell above its link's
// capacity clamps to it (SetHighPri's rule).
func (s *State) SetHighPriMatrix(m [][]float64) error {
	s.guardPlan("SetHighPriMatrix")
	if err := CheckHighPriMatrix(m, s.Net.NumEdges(), s.Horizon); err != nil {
		return err
	}
	for e, row := range m {
		for t, v := range row {
			s.SetHighPri(graph.EdgeID(e), t, v)
		}
	}
	return nil
}
