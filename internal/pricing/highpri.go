package pricing

import (
	"fmt"
	"math"
)

// CheckHighPriMatrix is the one shape-and-cell rule for a high-pri
// matrix over edges links and horizon steps: one row per edge of exactly
// horizon steps, every cell finite and non-negative. core applies it to
// the actual high-pri use that drains physical capacity.
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
