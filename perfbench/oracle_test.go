package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gedlib"
	"gedlib/serve"
	"gedlib/workload"
)

// tinyKB writes a small knowledge base with planted violations and
// returns its wire JSON, its rules and the wire id of a person that
// violates φ1 (a psychologist who created a video game).
func tinyKB(t *testing.T) ([]byte, gedlib.RuleSet, string) {
	t.Helper()
	g, _ := workload.KnowledgeBase(3, 30, 0.3)
	data, err := gedlib.MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	rules := paperRules()
	keys, err := oracleKeys(data, rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.HasPrefix(k, "phi1|") {
			// phi1|x=<person>,y=<product>|...
			x := strings.TrimPrefix(strings.Split(strings.Split(k, "|")[1], ",")[0], "x=")
			return data, rules, x
		}
	}
	t.Fatal("tiny knowledge base has no φ1 violation to work with")
	return nil, nil, ""
}

func dropOne(keys []string) []string {
	return append([]string(nil), keys[1:]...)
}

// The read-mix check: a served set that lost or gained a violation
// against a fresh Validate is caught.
func TestServedSetComparatorCatchesMismatch(t *testing.T) {
	data, rules, _ := tinyKB(t)
	want, err := oracleKeys(data, rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 {
		t.Fatalf("want at least 2 violations, got %d", len(want))
	}
	if err := diffKeys("same", want, append([]string(nil), want...)); err != nil {
		t.Errorf("identical sets differ: %v", err)
	}
	if diffKeys("lost", want, dropOne(want)) == nil {
		t.Error("a lost violation went unnoticed")
	}
	extra := append(append([]string(nil), want...), "zzz|x=n0|x.type = \"programmer\"")
	if diffKeys("extra", want, extra) == nil {
		t.Error("an extra violation went unnoticed")
	}
	changed := append([]string(nil), want...)
	changed[0] += "!"
	if diffKeys("changed", want, changed) == nil {
		t.Error("a changed violation went unnoticed")
	}
}

// The write-durable restart check: a tenant restored at another version,
// with another violation set, or not at all is caught.
func TestRecoveredComparatorCatchesMismatch(t *testing.T) {
	data, rules, _ := tinyKB(t)
	keys, err := oracleKeys(data, rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	pre := map[string]tenantState{"a": {Version: 7, Keys: keys}, "b": {Version: 3, Keys: keys}}
	same := map[string]tenantState{"a": {Version: 7, Keys: keys}, "b": {Version: 3, Keys: keys}}
	if err := checkRecovered(pre, same); err != nil {
		t.Errorf("identical states differ: %v", err)
	}
	for name, post := range map[string]map[string]tenantState{
		"version": {"a": {Version: 6, Keys: keys}, "b": {Version: 3, Keys: keys}},
		"set":     {"a": {Version: 7, Keys: keys}, "b": {Version: 3, Keys: dropOne(keys)}},
		"missing": {"a": {Version: 7, Keys: keys}},
		"extra":   {"a": {Version: 7, Keys: keys}, "b": {Version: 3, Keys: keys}, "c": {Version: 1}},
	} {
		if checkRecovered(pre, post) == nil {
			t.Errorf("restart with a different %s went unnoticed", name)
		}
	}
}

// The write-durable oracle check: the base graph plus every acknowledged
// write. A served set that lost an acknowledged write is caught.
func TestDurableOracleCatchesLostWrite(t *testing.T) {
	data, rules, bad := tinyKB(t)
	dir := t.TempDir()
	in := servingInputs{
		Tenants: []tenant{{Name: "t0", File: filepath.Join(dir, "t0.json")}},
		Rules:   filepath.Join(dir, "rules.ged"),
	}
	if err := os.WriteFile(in.Tenants[0].File, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in.Rules, []byte(gedlib.FormatRules(rules)), 0o644); err != nil {
		t.Fatal(err)
	}
	// One acknowledged write repairs the φ1 violation; one refused
	// write would have brought it back.
	fix := []serve.Op{{Op: "set_attr", ID: bad, Attr: "type", Value: "programmer"}}
	refused := []serve.Op{{Op: "set_attr", ID: bad, Attr: "type", Value: "psychologist"}}
	run := &loadRun{
		Reqs: []genReq{{Class: "mutate", Ops: fix}, {Class: "mutate", Ops: refused}, {Class: "violations"}},
		Res:  genResult{Status: []int{http.StatusOK, http.StatusServiceUnavailable, http.StatusOK}},
	}
	withWrite, err := oracleKeys(data, rules, fix)
	if err != nil {
		t.Fatal(err)
	}
	lostWrite, err := oracleKeys(data, rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOracle(in, run, map[string]tenantState{"t0": {Keys: withWrite}}); err != nil {
		t.Errorf("the served set with the write applied fails: %v", err)
	}
	if checkOracle(in, run, map[string]tenantState{"t0": {Keys: lostWrite}}) == nil {
		t.Error("a lost acknowledged write went unnoticed")
	}
	withRefused, err := oracleKeys(data, rules, append(append([]serve.Op(nil), fix...), refused...))
	if err != nil {
		t.Fatal(err)
	}
	if checkOracle(in, run, map[string]tenantState{"t0": {Keys: withRefused}}) == nil {
		t.Error("a refused write that was applied went unnoticed")
	}
}

// The engine-batch check: the child's digests against the oracle's, for
// the cold Validate and for the last Apply after the deltas it applied.
func TestEngineComparatorCatchesMismatch(t *testing.T) {
	g, _ := workload.KnowledgeBase(5, 30, 0.3)
	data, err := gedlib.MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	src := gedlib.FormatRules(paperRules()) + "\n" + diamondRule
	rules, err := gedlib.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	deltas := engineDeltas(5, g)[:3]
	cold, err := oracleKeys(data, rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ops []serve.Op
	for _, d := range deltas[:2] {
		ops = append(ops, d...)
	}
	final, err := oracleKeys(data, rules, ops)
	if err != nil {
		t.Fatal(err)
	}
	good := engineReport{
		Applied:    2,
		ColdDigest: digestKeys(cold), ColdCount: len(cold),
		FinalDigest: digestKeys(final), FinalCount: len(final),
	}
	if err := checkEngine(data, src, deltas, &good); err != nil {
		t.Fatalf("a correct report fails: %v", err)
	}
	for name, mutate := range map[string]func(r *engineReport){
		"cold set":      func(r *engineReport) { r.ColdDigest = digestKeys(dropOne(cold)) },
		"cold count":    func(r *engineReport) { r.ColdCount++ },
		"final set":     func(r *engineReport) { r.FinalDigest = digestKeys(dropOne(final)) },
		"delta count":   func(r *engineReport) { r.Applied = 3 },
		"beyond stream": func(r *engineReport) { r.Applied = 4 },
	} {
		bad := good
		mutate(&bad)
		if checkEngine(data, src, deltas, &bad) == nil {
			t.Errorf("a report with a wrong %s went unnoticed", name)
		}
	}
}
