package figures

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite figures output golden files")

// TestQuickArtifactsGolden pins every quick-mode artifact byte for byte:
// the text each experiment writes to Context.W and every CSV it saves,
// by file name. The ClusterA-only context covers the single-cluster
// paths (skipped acceleration table, one figclock sweep). Regenerate
// with `go test ./internal/figures -run Golden -update` only when an
// intentional model or presentation change alters the artifacts.
func TestQuickArtifactsGolden(t *testing.T) {
	for _, c := range []struct {
		name     string
		clusters []string
	}{
		{"default", nil},
		{"ClusterA", []string{"ClusterA"}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ctx, sb, dir := quickCtx(t)
			ctx.Clusters = c.clusters
			for _, e := range All() {
				if err := e.Run(ctx); err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
			}
			checkGolden(t, filepath.Join("testdata", "quick_"+c.name+".golden"),
				dumpArtifacts(t, sb.String(), dir))
		})
	}
}

// dumpArtifacts concatenates the writer text and every file in dir
// (sorted by name) into one golden document.
func dumpArtifacts(t *testing.T, text, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "=== output ===\n%s", text)
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "=== %s ===\n%s", n, data)
	}
	return b.String()
}

// checkGolden compares got with the golden file at path, or rewrites it
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("%s: line %d differs\nwant: %q\n got: %q", path, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("%s: length differs: want %d lines, got %d", path, len(wl), len(gl))
}
