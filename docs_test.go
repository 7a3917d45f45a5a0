package prism

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/server"
)

// metricsDocRow matches the first cell of a METRICS.md table row:
// "| `name` | type | ...". Prose mentions of metrics are not rows and
// are ignored.
var metricsDocRow = regexp.MustCompile("(?m)^\\| `([a-z0-9_.]+)`")

// TestMetricsDocsComplete keeps METRICS.md and the registry in lockstep:
// every documented metric must be exported by some store configuration,
// and every exported metric must be documented. The export set is the
// union of the default configuration, the DisableCombining ablation
// (which swaps the tcq.* family for ta.*), a sharded store (the shard.*
// router family), a replicated store (the shard.replica_* and repair.*
// families), a range-placed store (the shard.placement_*/range_scans
// and migrate.* families), and a store with a RESP server attached
// (which contributes the server.* family).
func TestMetricsDocsComplete(t *testing.T) {
	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatalf("METRICS.md: %v", err)
	}
	documented := map[string]bool{}
	for _, m := range metricsDocRow.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	if len(documented) < 40 {
		t.Fatalf("only %d metrics documented in METRICS.md; table format changed?", len(documented))
	}

	exported := map[string]bool{}
	for _, opt := range []Options{{}, {DisableCombining: true}, {Shards: 2}, {Shards: 3, Replicas: 2},
		{Shards: 3, Placement: "range", SplitKeys: [][]byte{[]byte("g"), []byte("q")}}} {
		st, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range st.Metrics().Names() {
			exported[n] = true
		}
		st.Close()
	}
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	server.New(st, server.Config{}) // registers server.* without serving
	for _, n := range st.Metrics().Names() {
		exported[n] = true
	}
	st.Close()

	for n := range documented {
		if !exported[n] {
			t.Errorf("METRICS.md documents %q but no store configuration exports it", n)
		}
	}
	for n := range exported {
		if !documented[n] {
			t.Errorf("registry exports %q but METRICS.md does not document it", n)
		}
	}
}

// TestReadmeMentionsMetrics keeps the README's observability section
// pointing at the reference doc.
func TestReadmeMentionsMetrics(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md: %v", err)
	}
	for _, want := range []string{"METRICS.md", "-metrics", "Metrics()"} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).Match(readme) {
			t.Errorf("README.md does not mention %q", want)
		}
	}
}

// roadmapItemByNumber matches a ROADMAP item cited by its number: "item
// 3", "items 1 and 2", "ROADMAP #7", "ROADMAP item 4".
var roadmapItemByNumber = regexp.MustCompile(`(?i)\bitems?\s+\(?[0-9]|\broadmap:?\s+(item\s+)?#?[0-9]`)

// TestDocsCiteRoadmapItemsByTitle: the docs that describe the present cite
// a ROADMAP item by its title, because the numbers change at every
// re-anchor. CHANGES.md is history and is not checked.
func TestDocsCiteRoadmapItemsByTitle(t *testing.T) {
	for _, f := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "METRICS.md", ".claude/skills/verify/SKILL.md"} {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range roadmapItemByNumber.FindAllIndex(doc, -1) {
			line := 1 + strings.Count(string(doc[:at[0]]), "\n")
			t.Errorf("%s:%d cites a ROADMAP item by number (%q): cite it by title", f, line, doc[at[0]:at[1]])
		}
	}
}

// docBudgets caps, in bytes, the docs every session reads before it writes
// code. A change may lower a budget but never raise it: one that needs
// more words removes as many elsewhere — from CHANGES.md by compressing
// older entries.
var docBudgets = []struct {
	file  string
	bytes int64
}{
	{"DESIGN.md", 92982},
	{"EXPERIMENTS.md", 53032},
	{"README.md", 29679},
	{".claude/skills/verify/SKILL.md", 29863},
	{"CHANGES.md", 162642},
	{"METRICS.md", 27876},
}

// TestDocsByteBudget holds each of those docs to its budget.
func TestDocsByteBudget(t *testing.T) {
	for _, d := range docBudgets {
		fi, err := os.Stat(d.file)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > d.bytes {
			t.Errorf("%s is %d bytes, over its budget of %d: remove as many bytes as it gained", d.file, fi.Size(), d.bytes)
		}
	}
}
