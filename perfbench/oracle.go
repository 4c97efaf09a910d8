package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"gedlib"
	"gedlib/serve"
)

// Output checks. A violation is compared by its canonical key:
// "rule|var=node,...|literal" with the match variables sorted and nodes
// written as wire ids, so the server's JSON and the library's
// []Violation compare as plain strings.

// wireViolation is one violation as the violations endpoint renders it.
type wireViolation struct {
	Rule    string            `json:"rule"`
	Match   map[string]string `json:"match"`
	Literal string            `json:"literal"`
}

func violationKey(rule string, match map[string]string, literal string) string {
	vars := make([]string, 0, len(match))
	for v := range match {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	b.WriteString(rule)
	b.WriteByte('|')
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v + "=" + match[v])
	}
	b.WriteByte('|')
	b.WriteString(literal)
	return b.String()
}

// wireKeys returns the sorted keys of server-rendered violations.
func wireKeys(vs []wireViolation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = violationKey(v.Rule, v.Match, v.Literal)
	}
	sort.Strings(out)
	return out
}

// libKeys returns the sorted keys of library violations, naming nodes
// through wire (NodeID → wire id).
func libKeys(vs []gedlib.Violation, wire map[gedlib.NodeID]string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		m := make(map[string]string, len(v.Match))
		for x, id := range v.Match {
			m[string(x)] = wire[id]
		}
		out[i] = violationKey(v.GED.Name, m, v.Literal.String())
	}
	sort.Strings(out)
	return out
}

// diffKeys compares two sorted key lists and describes the first
// difference.
func diffKeys(what string, want, got []string) error {
	i, j := 0, 0
	for i < len(want) && j < len(got) {
		switch {
		case want[i] == got[j]:
			i++
			j++
		case want[i] < got[j]:
			return fmt.Errorf("%s: %d violations, want %d; missing %q", what, len(got), len(want), want[i])
		default:
			return fmt.Errorf("%s: %d violations, want %d; unexpected %q", what, len(got), len(want), got[j])
		}
	}
	if i < len(want) {
		return fmt.Errorf("%s: %d violations, want %d; missing %q", what, len(got), len(want), want[i])
	}
	if j < len(got) {
		return fmt.Errorf("%s: %d violations, want %d; unexpected %q", what, len(got), len(want), got[j])
	}
	return nil
}

// digestKeys condenses a sorted key list, for results that cross a
// process boundary.
func digestKeys(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracleKeys is the reference answer for one graph: load the wire
// graph, apply ops in order, and run a fresh Engine.Validate.
func oracleKeys(graphJSON []byte, rules gedlib.RuleSet, ops []serve.Op) ([]string, error) {
	g, names, err := gedlib.LoadGraph(graphJSON)
	if err != nil {
		return nil, err
	}
	if err := applyOps(g, names, ops); err != nil {
		return nil, err
	}
	vs, err := gedlib.New().Validate(context.Background(), g, rules)
	if err != nil {
		return nil, err
	}
	return libKeys(vs, invert(names)), nil
}

func invert(names map[string]gedlib.NodeID) map[gedlib.NodeID]string {
	out := make(map[gedlib.NodeID]string, len(names))
	for n, id := range names {
		out[id] = n
	}
	return out
}

// tenantState is one tenant's served state: the view version and its
// complete violation set.
type tenantState struct {
	Version uint64
	Keys    []string
}

// fetchState reads a tenant's complete maintained violation set.
func fetchState(client *http.Client, base, name string) (tenantState, error) {
	var page struct {
		Total      int             `json:"total"`
		Version    uint64          `json:"version"`
		Violations []wireViolation `json:"violations"`
	}
	if err := getJSON(client, base+"/graphs/"+name+"/violations?limit=-1", &page); err != nil {
		return tenantState{}, err
	}
	if page.Total != len(page.Violations) {
		return tenantState{}, fmt.Errorf("%s: page holds %d of %d violations", name, len(page.Violations), page.Total)
	}
	return tenantState{Version: page.Version, Keys: wireKeys(page.Violations)}, nil
}

// checkRecovered compares every tenant's state after a restart with its
// state before the kill: same version, same violations.
func checkRecovered(pre, post map[string]tenantState) error {
	names := make([]string, 0, len(pre))
	for n := range pre {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := pre[n], post[n]
		if _, ok := post[n]; !ok {
			return fmt.Errorf("%s: not restored", n)
		}
		if a.Version != b.Version {
			return fmt.Errorf("%s: restored at version %d, was %d before the kill", n, b.Version, a.Version)
		}
		if err := diffKeys(n+" after restart", a.Keys, b.Keys); err != nil {
			return err
		}
	}
	if len(post) != len(pre) {
		return fmt.Errorf("restored %d tenants, had %d", len(post), len(pre))
	}
	return nil
}
