package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper must be registered exactly
	// once, plus the extension experiments.
	want := []string{
		"table1", "table2", "table3",
		"fig2", "fig3",
		"fig4a", "fig4b", "fig4c",
		"fig5a", "fig5b", "fig5c",
		"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f",
		"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f",
		"newinsn", "numa", "ablations", "faulttol", "healthsweep",
		"cluster",
	}
	seen := map[string]int{}
	for _, e := range experiments {
		seen[e.id]++
		if e.desc == "" || e.run == nil {
			t.Errorf("experiment %q incompletely registered", e.id)
		}
	}
	for _, id := range want {
		if seen[id] != 1 {
			t.Errorf("experiment %q registered %d times, want 1", id, seen[id])
		}
	}
	if len(experiments) != len(want) {
		t.Errorf("%d experiments registered, want %d", len(experiments), len(want))
	}
	if lookup("table1") == nil || lookup("nope") != nil {
		t.Error("lookup misbehaves")
	}
}

func TestQuickSmokeTables(t *testing.T) {
	// The table experiments are cheap enough to smoke in a unit test.
	for _, id := range []string{"table1", "table3"} {
		if err := lookup(id).run(true); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestReportRecordsSimulation drives the cheapest simulating experiment
// through the -report path and checks the entry it writes: the headline
// GNPS is folded in from the sweep's points by reportSim.
func TestReportRecordsSimulation(t *testing.T) {
	*reportPath = filepath.Join(t.TempDir(), "report.json")
	defer func() { *reportPath, report = "", nil }()
	reportInit(1, true)
	reportStart("fig4b")
	start := time.Now()
	if err := lookup("fig4b").run(true); err != nil {
		t.Fatal(err)
	}
	reportFinish(time.Since(start).Seconds())
	if err := reportWrite(time.Since(start).Seconds()); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(*reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var got runReport
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Experiments) != 1 {
		t.Fatalf("report holds %d experiments, want 1:\n%s", len(got.Experiments), buf)
	}
	e := got.Experiments[0]
	if e.ID != "fig4b" || !(e.WallSeconds > 0) || !(e.HeadlineGNPS > 0) || e.SimPoints <= 0 {
		t.Errorf("fig4b entry = %+v", e)
	}
}
