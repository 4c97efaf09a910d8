package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs:
// the smallest sample with at least a p share of the samples at or
// below it. It does not modify xs; an empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint of xs: the mean of the two middle samples when
// the count is even. An empty input gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// span is one traced interval: a layer boundary crossed by one request
// (or one library call). Spans of one request share ID; Parent names
// the span that caused this one ("" for a root).
type span struct {
	ID     string
	Name   string
	Parent string
	Start  time.Time
	End    time.Time
}

// Dur is the span's duration.
func (s span) Dur() time.Duration { return s.End.Sub(s.Start) }

// selfTime is a span's duration minus the durations of its children,
// floored at zero. Children are the spans of the same request whose
// Parent is the span's Name. The children of a request run one after
// another, so their durations add; a replayed child (timed after its
// parent returned, see the traced serving run) is charged the same way.
func selfTime(parent span, all []span) time.Duration {
	self := parent.Dur()
	for _, c := range all {
		if c.ID == parent.ID && c.Parent == parent.Name {
			self -= c.Dur()
		}
	}
	if self < 0 {
		return 0
	}
	return self
}

// metricName is the charset and length a metric name must keep: it
// starts with a letter or digit and holds at most 64 of [A-Za-z0-9_.-].
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitName is the charset a unit keeps: at most 16 of [A-Za-z0-9_/%.-].
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkNames rejects a metric table with a malformed or repeated name
// or a malformed unit.
func checkNames(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			return fmt.Errorf("metric name %q: want %s", d.Name, metricName)
		}
		if !unitName.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q: want %s", d.Name, d.Unit, unitName)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q repeated", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}
