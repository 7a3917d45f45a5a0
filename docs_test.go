package prism

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/server"
)

// metricsDocRow matches the first cell of a METRICS.md table row:
// "| `name` | type | ...". Prose mentions of metrics are not rows and
// are ignored.
var metricsDocRow = regexp.MustCompile("(?m)^\\| `([a-z0-9_.]+)`")

// TestMetricsDocsComplete keeps METRICS.md and the registry in lockstep:
// every documented metric must be exported by some store shape
// (exportedSeries), and every exported metric must be documented.
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

	exported := exportedSeries(t)
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

// exportedSeries returns every series name some store shape exports: the
// default configuration, the DisableCombining ablation (which swaps the
// tcq.* family for ta.*), a sharded store (the shard.* router family), a
// replicated store (the shard.replica_* and repair.* families), a
// range-placed store (the shard.placement_*/range_scans and migrate.*
// families), and a store with a RESP server attached (which contributes
// the server.* family).
func exportedSeries(t *testing.T) map[string]bool {
	t.Helper()
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
	return exported
}

// seriesRegistrars are the files that register series; a name they hold
// is a definition, not a read.
var seriesRegistrars = map[string]bool{
	"internal/core/metrics.go":   true,
	"internal/shard/metrics.go":  true,
	"internal/server/metrics.go": true,
	"docs_test.go":               true,
}

// TestEverySeriesIsRead fails for an exported series that nothing reads:
// its name, double-quoted, must appear in some Go file other than the
// registrars — a test that asserts its value, benchmark/'s counters, an
// experiment, an example or a command. A series only METRICS.md describes
// is deleted, not documented.
func TestEverySeriesIsRead(t *testing.T) {
	var src strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || seriesRegistrars[filepath.ToSlash(path)] {
			return nil
		}
		b, err := os.ReadFile(path)
		src.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	for n := range exportedSeries(t) {
		if !strings.Contains(src.String(), `"`+n+`"`) {
			unread = append(unread, n)
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d exported series have no reader outside the registrars; assert their values in a test or delete them:\n%s",
			len(unread), strings.Join(unread, "\n"))
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
	{"EXPERIMENTS.md", 50750},
	{"README.md", 29679},
	{".claude/skills/verify/SKILL.md", 29863},
	{"CHANGES.md", 162642},
	{"METRICS.md", 25938},
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
