package main

import (
	"reflect"
	"strings"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/dvfs"
	"github.com/spechpc/spechpc-sim/internal/machine"
)

// TestParseClocksLadder checks "ladder" expands to the cluster's full
// DVFS ladder, and that a cluster without one is an error rather than an
// empty sweep.
func TestParseClocksLadder(t *testing.T) {
	a := machine.ClusterA()
	got, err := parseClocks(" Ladder ", a)
	if err != nil {
		t.Fatal(err)
	}
	if want := a.CPU.DVFS.Ladder(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("ladder = %v, want %v", got, want)
	}

	fixed := machine.ClusterA()
	fixed.CPU.DVFS = dvfs.Model{}
	if _, err := parseClocks("ladder", fixed); err == nil || !strings.Contains(err.Error(), "has no DVFS ladder") {
		t.Errorf("cluster without a ladder: err = %v", err)
	}
}

// TestParseClocksList checks a comma-separated GHz list parses to Hz in
// order, and that bad entries are rejected.
func TestParseClocksList(t *testing.T) {
	got, err := parseClocks("0.8, 1.6,,2.4", machine.ClusterA())
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.8e9, 1.6e9, 2.4e9}; !reflect.DeepEqual(got, want) {
		t.Errorf("clocks = %v, want %v", got, want)
	}
	for _, bad := range []string{"", ",", "fast", "0", "-1.2"} {
		if _, err := parseClocks(bad, machine.ClusterA()); err == nil {
			t.Errorf("parseClocks(%q) accepted", bad)
		}
	}
}
