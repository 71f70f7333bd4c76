package exp

import (
	"fmt"
	"math"
	"strings"
)

// RenderBars draws a horizontal ASCII bar chart of one named column
// across rows — a terminal rendition of the paper's bar figures. Bars
// share a linear scale across rows; negative values extend left of the
// axis. Rows missing the column are skipped.
func RenderBars(rows []Row, column string, width int) string {
	if width < 10 {
		width = 10
	}
	type pt struct {
		label string
		v     float64
	}
	var pts []pt
	maxAbs := 0.0
	for _, r := range rows {
		for _, c := range r.Columns {
			if c.Name != column {
				continue
			}
			pts = append(pts, pt{label: r.Label, v: c.Value})
			if a := math.Abs(c.Value); a > maxAbs {
				maxAbs = a
			}
		}
	}
	if len(pts) == 0 {
		return ""
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	labelW := 0
	for _, p := range pts {
		if len(p.label) > labelW {
			labelW = len(p.label)
		}
	}
	half := width / 2
	var b strings.Builder
	fmt.Fprintf(&b, "%s (|max| = %.4g)\n", column, maxAbs)
	for _, p := range pts {
		n := int(math.Round(math.Abs(p.v) / maxAbs * float64(half)))
		if n > half {
			n = half
		}
		var left, right string
		if p.v < 0 {
			left = strings.Repeat(" ", half-n) + strings.Repeat("#", n)
			right = strings.Repeat(" ", half)
		} else {
			left = strings.Repeat(" ", half)
			right = strings.Repeat("#", n) + strings.Repeat(" ", half-n)
		}
		fmt.Fprintf(&b, "%-*s %s|%s %9.4g\n", labelW, p.label, left, right, p.v)
	}
	return b.String()
}
