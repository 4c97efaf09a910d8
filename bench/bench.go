// Package bench exposes the evaluation harness that regenerates the
// paper's artifacts: the Table 1 decision matrix (each decision
// procedure against ground truth on the hardness families and planted
// workloads) and the scaling series for the tractable special cases.
// Command gedbench is a thin CLI over this package.
package bench

import (
	"io"

	"gedlib/internal/bench"
)

// Row is one cell of the Table 1 reproduction.
type Row = bench.Row

// Report is a collection of measured rows.
type Report = bench.Report

// ScalingPoint is one measurement of a scaling series.
type ScalingPoint = bench.ScalingPoint

// Table1 measures every decision procedure against ground truth; quick
// skips the slowest instances (the Grötzsch graph).
func Table1(quick bool) *Report { return bench.Table1(quick) }

// BoundedPatternValidation measures validation time on growing graphs
// with fixed-size patterns (Section 5.3: PTIME).
func BoundedPatternValidation(sizes []int) []ScalingPoint {
	return bench.BoundedPatternValidation(sizes)
}

// GFDxSatConstant measures GFDx satisfiability on growing rule sets
// (Theorem 3: O(1) beyond the class scan).
func GFDxSatConstant(sizes []int) []ScalingPoint { return bench.GFDxSatConstant(sizes) }

// WriteScaling renders a scaling series as an aligned table.
func WriteScaling(w io.Writer, name string, pts []ScalingPoint) { bench.WriteScaling(w, name, pts) }

// MatchPoint is one measurement of the match-enumeration comparison:
// the legacy scan-and-probe extension step versus worst-case-optimal
// sorted-run intersection with pushed-down literal postings.
type MatchPoint = bench.MatchPoint

// MatchEnumeration measures both extension strategies on the
// triangle/diamond-heavy and selective-literal knowledge-base
// scenarios; quick shrinks the instance for CI.
func MatchEnumeration(quick bool) []MatchPoint { return bench.MatchEnumeration(quick) }

// MatchScenarioSpeedup returns the median per-point speedup of one
// scenario ("dense" or "selective").
func MatchScenarioSpeedup(pts []MatchPoint, scenario string) float64 {
	return bench.ScenarioSpeedup(pts, scenario)
}

// WriteMatch renders the match-enumeration comparison as an aligned
// table.
func WriteMatch(w io.Writer, pts []MatchPoint) { bench.WriteMatch(w, pts) }

// ComparisonPoint is one measurement of full validation over the
// frozen CSR snapshot: freeze cost, one-shot freeze-plus-validate, and
// validation against a cached snapshot.
type ComparisonPoint = bench.ComparisonPoint

// CompareValidation measures snapshot validation on growing
// knowledge-base workloads.
func CompareValidation(scales []int) []ComparisonPoint { return bench.CompareValidation(scales) }

// WriteComparison renders the validation measurements as an aligned
// table.
func WriteComparison(w io.Writer, pts []ComparisonPoint) { bench.WriteComparison(w, pts) }
