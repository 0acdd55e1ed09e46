package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/campaign"
)

var updateGolden = flag.Bool("update", false, "rewrite generic-renderer golden files")

// TestExecuteGolden pins the generic renderer's artifacts for the sample
// scenario byte for byte: the text written to the writer and every CSV
// by file name. The sample covers a rank sweep with a relative metric, a
// clock sweep, and a pinned job. Regenerate with
// `go test ./internal/scenario -run Golden -update` only when an
// intentional model or presentation change alters the artifacts.
func TestExecuteGolden(t *testing.T) {
	sc, err := LoadFile(writeScenario(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var sb strings.Builder
	if err := (&Planner{Scheduler: campaign.NewScheduler(2, nil)}).Execute(sc, &sb, dir); err != nil {
		t.Fatal(err)
	}
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
	fmt.Fprintf(&b, "=== output ===\n%s", sb.String())
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "=== %s ===\n%s", n, data)
	}
	got := b.String()

	path := filepath.Join("testdata", "execute_sample.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
