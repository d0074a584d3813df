package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: fewer, and the figure is one or two outliers, not a tail.
const minBeyond = 10

// dist is a latency distribution reported as a median plus the highest
// percentile, at most capQ, that leaves at least minBeyond samples
// beyond it.
type dist struct {
	n     int
	p50   float64
	tail  float64
	tailQ float64 // the percentile tail reports, as a fraction
}

// summarize reports xs by the rule above. With minBeyond or fewer
// samples no percentile qualifies; tail is then the maximum and tailQ
// is 1, which the report flags.
func summarize(xs []float64, capQ float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{n: n, p50: s[(n+1)/2-1]}
	// Nearest rank r (0-based) of a percentile q is ceil(q*n)-1; it
	// leaves n-1-r samples beyond it.
	r := n - 1 - minBeyond
	if capR := int(math.Ceil(capQ*float64(n))) - 1; capR < r {
		r = capR
	}
	if r < 0 {
		d.tail, d.tailQ = s[n-1], 1
		return d
	}
	d.tail, d.tailQ = s[r], float64(r+1)/float64(n)
	return d
}

func (d dist) String() string {
	if d.n == 0 {
		return "no samples"
	}
	flag := ""
	if d.tailQ == 1 {
		flag = " (too few samples for a tail: max shown)"
	}
	return fmt.Sprintf("p50 %.3f, p%.1f %.3f, n=%d%s", d.p50, 100*d.tailQ, d.tail, d.n, flag)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
