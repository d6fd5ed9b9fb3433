package main

import (
	"fmt"
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported high
// percentile for it to be more than one or two outliers.
const tailSamples = 10

// falseFailRate is the chance that a correct program fails a run's
// statistical output checks, split evenly over the run's checks.
const falseFailRate = 1e-5

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank —
// the smallest sample with at least a share q of samples at or below it —
// and how many samples lie strictly beyond that rank. xs is not modified.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1], len(s) - k
}

// samplesForTail returns the fewest samples for which the q-quantile has
// at least tailSamples samples beyond it: 100 for the 90th percentile.
func samplesForTail(q float64) int {
	n := tailSamples
	for {
		if _, beyond := percentile(make([]float64, n), q); beyond >= tailSamples {
			return n
		}
		n++
	}
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// zBound returns the two-sided normal bound z for which a correct program
// fails any of k independent checks with probability at most
// falseFailRate: P(|Z| > z) = falseFailRate/k.
func zBound(k int) float64 {
	if k < 1 {
		k = 1
	}
	tail := falseFailRate / float64(k)
	lo, hi := 0.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if math.Erfc(mid/math.Sqrt2) > tail {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// zScore is the standardized difference between an estimate and a
// reference, each with its own standard error.
func zScore(est, se, ref, refSE float64) float64 {
	return (est - ref) / math.Sqrt(se*se+refSE*refSE)
}

// meanSE accumulates observations for a mean and its standard error.
type meanSE struct {
	n          float64
	sum, sumSq float64
}

func (a *meanSE) add(x float64) { a.addN(x, 1) }

// addN adds n copies of x — used to fold in the implied zero counts of
// event-free groups without materializing them.
func (a *meanSE) addN(x, n float64) {
	a.n += n
	a.sum += x * n
	a.sumSq += x * x * n
}

// addMoments folds in n observations given by their sum and sum of
// squares.
func (a *meanSE) addMoments(n, sum, sumSq float64) {
	a.n += n
	a.sum += sum
	a.sumSq += sumSq
}

func (a *meanSE) mean() float64 { return a.sum / a.n }

// se is the standard error of the mean from the sample variance.
func (a *meanSE) se() float64 {
	if a.n < 2 {
		return math.Inf(1)
	}
	m := a.mean()
	v := (a.sumSq - a.n*m*m) / (a.n - 1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v / a.n)
}

// zCheck is one statistical output check against a pinned reference.
type zCheck struct {
	name       string
	est, se    float64
	ref, refSE float64
	ops        int // operations whose outputs the estimate pools
}

// checks tallies a run's operations and output checks. An operation that
// errors, is refused, or fails a per-operation check counts as failed; a
// statistical check that fails marks every operation it pooled as failed.
type checks struct {
	attempted, failed int
	pending           []zCheck
	stat              []string
	bad               bool
}

// op records one operation and whether all of its own checks passed.
func (c *checks) op(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// z queues a statistical check; it is judged in finish, once the number
// of checks (and so the per-check bound) is known.
func (c *checks) z(z zCheck) { c.pending = append(c.pending, z) }

func (c *checks) finish() {
	bound := zBound(len(c.pending))
	for _, z := range c.pending {
		s := zScore(z.est, z.se, z.ref, z.refSE)
		verdict := "ok"
		if !(math.Abs(s) <= bound) {
			verdict = "FAILED"
			c.bad = true
			c.failed += z.ops
		}
		c.stat = append(c.stat, fmt.Sprintf("%s: %.6g ± %.2g vs reference %.6g ± %.2g, z=%.2f (bound %.2f) %s",
			z.name, z.est, z.se, z.ref, z.refSE, s, bound, verdict))
	}
	c.pending = nil
	if c.failed > c.attempted {
		c.failed = c.attempted
	}
}

func (c *checks) correct() bool { return !c.bad && c.failed == 0 }
