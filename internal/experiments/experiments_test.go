package experiments

import (
	"strconv"
	"strings"
	"testing"

	"evop/internal/scenario"
)

// Every experiment must run green and produce a well-formed table. These
// are the repo's heaviest integration tests: each one exercises a full
// slice of the system.

func runExperiment(t *testing.T, id string) *Table {
	t.Helper()
	runner, ok := All()[id]
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	table, err := runner()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if table.ID != id {
		t.Fatalf("table ID = %s, want %s", table.ID, id)
	}
	if len(table.Columns) == 0 || len(table.Rows) == 0 {
		t.Fatalf("%s produced an empty table", id)
	}
	for i, row := range table.Rows {
		if len(row) != len(table.Columns) {
			t.Fatalf("%s row %d has %d cells, want %d", id, i, len(row), len(table.Columns))
		}
	}
	var sb strings.Builder
	if err := table.Fprint(&sb); err != nil {
		t.Fatalf("%s Fprint: %v", id, err)
	}
	if !strings.Contains(sb.String(), table.Title) {
		t.Fatalf("%s rendering missing title", id)
	}
	return table
}

func TestIDsCoverRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs = %d, registry = %d", len(ids), len(All()))
	}
	// E-experiments first (numeric order), then A-ablations.
	for i := 1; i < len(ids); i++ {
		prev, cur := ids[i-1], ids[i]
		if prev[0] == 'A' && cur[0] == 'E' {
			t.Fatalf("ablation before experiment: %v", ids)
		}
		if prev[0] == cur[0] && num(cur) <= num(prev) {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestE1EndToEnd(t *testing.T) { runExperiment(t, "E1") }

// TestE2Scenarios holds E2's peaks to the measured order: storage
// attenuates most, then afforestation, baseline and compaction.
func TestE2Scenarios(t *testing.T) {
	table := runExperiment(t, "E2")
	peak := make(map[string]float64)
	for _, row := range table.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("%s peak %q: %v", row[0], row[1], err)
		}
		peak[row[0]] = v
	}
	var prev scenario.Scenario
	for i, id := range []string{scenario.Storage, scenario.Afforestation, scenario.Baseline, scenario.Compaction} {
		sc, err := scenario.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := peak[sc.Name]; !ok {
			t.Fatalf("no row for %s", sc.Name)
		}
		if i > 0 && !(peak[prev.Name] < peak[sc.Name]) {
			t.Fatalf("peak %s %v, want below %s %v", prev.Name, peak[prev.Name], sc.Name, peak[sc.Name])
		}
		prev = sc
	}
}

func TestE3RESTvsStateful(t *testing.T) {
	table := runExperiment(t, "E3")
	if !strings.Contains(table.Rows[0][2], "200/200") {
		t.Fatalf("stateless sequences = %s", table.Rows[0][2])
	}
	if !strings.Contains(table.Rows[1][2], "0/200") {
		t.Fatalf("stateful sequences = %s", table.Rows[1][2])
	}
}

func TestE4Cloudburst(t *testing.T) {
	table := runExperiment(t, "E4")
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
}

func TestE5Malfunction(t *testing.T) {
	table := runExperiment(t, "E5")
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[3] != "no" { // sessionLost
			t.Fatalf("session lost in %s", row[0])
		}
	}
}

func TestE6PushVsPoll(t *testing.T) {
	table := runExperiment(t, "E6")
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Push sends exactly the number of updates.
	if table.Rows[0][1] != "10" {
		t.Fatalf("push messages = %s, want 10", table.Rows[0][1])
	}
}

func TestE7Elasticity(t *testing.T) {
	table := runExperiment(t, "E7")
	if len(table.Rows) != 5 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
}

func TestE8FlashCrowd(t *testing.T) {
	table := runExperiment(t, "E8")
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Elastic strategies serve everyone; static cannot.
	if table.Rows[1][1] != "50/50" || table.Rows[2][1] != "50/50" {
		t.Fatalf("elastic service = %s / %s", table.Rows[1][1], table.Rows[2][1])
	}
	if table.Rows[0][1] == "50/50" {
		t.Fatalf("static strategy served everyone (%s) — capacity model broken", table.Rows[0][1])
	}
}

func TestE9Journeys(t *testing.T)     { runExperiment(t, "E9") }
func TestE10Calibration(t *testing.T) { runExperiment(t, "E10") }
func TestE11Fusion(t *testing.T)      { runExperiment(t, "E11") }
func TestE12Workflow(t *testing.T)    { runExperiment(t, "E12") }

func TestE14Bundles(t *testing.T) {
	table := runExperiment(t, "E14")
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	if table.Rows[0][0] != "streamlined" || table.Rows[1][0] != "incubator" {
		t.Fatalf("rows = %v", table.Rows)
	}
}
