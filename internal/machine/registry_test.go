package machine

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryResolvesPaperClusters(t *testing.T) {
	for _, tc := range []struct{ query, want string }{
		{"ClusterA", "ClusterA"},
		{"ClusterB", "ClusterB"},
		{"A", "ClusterA"},
		{"b", "ClusterB"},
		{"clustera", "ClusterA"},
	} {
		cs, err := Get(tc.query)
		if err != nil {
			t.Errorf("Get(%q): %v", tc.query, err)
			continue
		}
		if cs.Name != tc.want {
			t.Errorf("Get(%q) = %s, want %s", tc.query, cs.Name, tc.want)
		}
	}
}

func TestRegistryUnknownClusterListsNames(t *testing.T) {
	_, err := Get("no-such-cluster")
	if err == nil || !strings.Contains(err.Error(), "ClusterA") {
		t.Fatalf("error should list registered names, got: %v", err)
	}
}

func TestGetReturnsFreshCopies(t *testing.T) {
	a1 := MustGet("ClusterA")
	a1.CPU.MemSaturatedPerDomain = 1 // mutate the returned instance
	a2 := MustGet("ClusterA")
	if a2.CPU.MemSaturatedPerDomain == 1 {
		t.Fatal("mutating a Get result leaked into the registry")
	}
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate", func() { Register("ClusterA", ClusterA) })
	mustPanic("nil factory", func() { Register("X", nil) })
	mustPanic("name mismatch", func() { Register("WrongName", ClusterA) })
	mustPanic("invalid spec", func() {
		Register("Broken", func() *ClusterSpec {
			cs := ClusterA()
			cs.Name = "Broken"
			cs.MaxNodes = 0
			return cs
		})
	})
}

// derivedOnce registers DerivedTest once per process: the registry
// refuses duplicates, and -count runs the test more than once.
var derivedOnce sync.Once

// TestFactoryMayDeriveFromRegistry pins the documented custom-cluster
// pattern: a factory that starts from another registered preset must
// resolve it without deadlocking on the registry lock.
func TestFactoryMayDeriveFromRegistry(t *testing.T) {
	derivedOnce.Do(func() {
		Register("DerivedTest", func() *ClusterSpec {
			cs := MustGet("ClusterA")
			cs.Name = "DerivedTest"
			cs.CPU.MemTheoreticalPerDomain *= 2
			cs.CPU.MemSaturatedPerDomain *= 2
			return cs
		})
	})
	done := make(chan *ClusterSpec)
	go func() { done <- MustGet("DerivedTest") }()
	cs := <-done
	if cs.Name != "DerivedTest" || cs.CPU.MemSaturatedPerDomain <= MustGet("ClusterA").CPU.MemSaturatedPerDomain {
		t.Fatalf("derived cluster wrong: %+v", cs)
	}
}

func TestNamesAndAll(t *testing.T) {
	names := Names()
	if len(names) < 2 || names[0] != "ClusterA" || names[1] != "ClusterB" {
		t.Fatalf("Names() = %v, want sorted list starting with the paper clusters", names)
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d entries, Names() has %d", len(all), len(names))
	}
	for i, cs := range all {
		if cs.Name != names[i] {
			t.Errorf("All()[%d] = %s, want %s", i, cs.Name, names[i])
		}
	}
}
