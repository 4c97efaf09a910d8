package pattern

import "gedlib/internal/graph"

// IntersectSortedForTest exposes the leapfrog intersection to the
// external differential-test package.
func IntersectSortedForTest(lists [][]graph.NodeID) []graph.NodeID {
	return intersectInto(nil, lists)
}

// BruteForceMatches and CanonMatches expose the brute-force reference
// and its canonical match rendering to the external differential tests.
var (
	BruteForceMatches = bruteForceMatches
	CanonMatches      = canonOf
)
