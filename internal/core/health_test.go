package core

import (
	"fmt"
	"testing"
)

// TestLevelString pins the rendered name of every ladder level — these
// strings appear in Health summaries, degrade trace events, and the
// chaos experiment tables, so renames are API changes.
func TestLevelString(t *testing.T) {
	cases := []struct {
		lvl  Level
		want string
	}{
		{LevelOK, "ok"},
		{LevelRelaxed, "relaxed-guarantees"},
		{LevelRetainedPrices, "retained-prices"},
		{LevelRepairReroute, "repair-reroute"},
		{LevelRepairReplan, "repair-replan"},
		{LevelRepairPreempt, "repair-preempt"},
		{LevelCarry, "carry-plan"},
		{LevelRepairSkipped, "repair-skipped"},
		{Level(99), "unknown"},
	}
	if len(cases) != numLevels+1 {
		t.Fatalf("test covers %d levels, ladder has %d — extend the table", len(cases)-1, numLevels)
	}
	for _, tc := range cases {
		if got := tc.lvl.String(); got != tc.want {
			t.Errorf("Level(%d).String() = %q, want %q", tc.lvl, got, tc.want)
		}
	}
}

// TestHealthRecordEveryLevel walks one event of each degradation level
// (LevelRelaxed through the LevelCarry terminal rung) through a report
// and checks every aggregate view: Counts, Worst, EventsAt, Degraded,
// and the per-event rendering.
func TestHealthRecordEveryLevel(t *testing.T) {
	levels := []Level{
		LevelRelaxed, LevelRetainedPrices,
		LevelRepairReroute, LevelRepairReplan,
		LevelRepairPreempt, LevelCarry, LevelRepairSkipped,
	}
	h := newHealth(len(levels))
	if h.Degraded() {
		t.Fatal("fresh report already degraded")
	}
	repair := map[Level]bool{
		LevelRepairReroute: true, LevelRepairReplan: true,
		LevelRepairPreempt: true, LevelRepairSkipped: true,
	}
	for i, lvl := range levels {
		module := ModuleSAM
		switch {
		case lvl == LevelRetainedPrices:
			module = ModulePC
		case repair[lvl]:
			module = ModuleRepair
		}
		h.record(i, module, lvl, fmt.Sprintf("reason-%d", i))
	}
	if !h.Degraded() {
		t.Fatal("Degraded() = false after recording events")
	}
	if len(h.Events) != len(levels) {
		t.Fatalf("Events = %d, want %d", len(h.Events), len(levels))
	}
	if h.Counts[LevelOK] != 0 {
		t.Errorf("Counts[ok] = %d, want 0", h.Counts[LevelOK])
	}
	for i, lvl := range levels {
		if h.Counts[lvl] != 1 {
			t.Errorf("Counts[%s] = %d, want 1", lvl, h.Counts[lvl])
		}
		if h.Worst[i] != lvl {
			t.Errorf("Worst[%d] = %s, want %s", i, h.Worst[i], lvl)
		}
		e := h.Events[i]
		want := fmt.Sprintf("t=%d %s %s: reason-%d", i, e.Module, lvl, i)
		if e.String() != want {
			t.Errorf("Event.String() = %q, want %q", e.String(), want)
		}
	}
	if got := len(h.EventsAt(ModulePC)); got != 1 {
		t.Errorf("PC events = %d, want 1", got)
	}
	if got := len(h.EventsAt(ModuleRepair)); got != 4 {
		t.Errorf("repair events = %d, want 4", got)
	}
	if got := len(h.EventsAt(ModuleSAM)); got != len(levels)-5 {
		t.Errorf("SAM events = %d, want %d", got, len(levels)-5)
	}
	if got := len(h.EventsAt("")); got != len(levels) {
		t.Errorf(`EventsAt("") = %d events, want %d`, got, len(levels))
	}
	want := "degraded 7/7 steps: relaxed-guarantees=1 retained-prices=1 " +
		"repair-reroute=1 repair-replan=1 repair-preempt=1 carry-plan=1 repair-skipped=1"
	if h.Summary() != want {
		t.Errorf("Summary = %q, want %q", h.Summary(), want)
	}
}

// TestHealthWorstKeepsMaximum checks Worst[t] tracks the most severe
// level when several modules degrade at the same step, regardless of
// recording order.
func TestHealthWorstKeepsMaximum(t *testing.T) {
	h := newHealth(1)
	h.record(0, ModuleSAM, LevelCarry, "terminal")
	h.record(0, ModulePC, LevelRetainedPrices, "milder, later")
	if h.Worst[0] != LevelCarry {
		t.Errorf("Worst[0] = %s, want carry-plan", h.Worst[0])
	}
	if h.Counts[LevelCarry] != 1 || h.Counts[LevelRetainedPrices] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
}

// TestHealthRecordOutOfRangeStep checks steps outside the horizon (the
// finalize-time SetReserved carry event can fire at the last step index,
// and defensive callers may pass -1) count in the report without
// touching Worst or panicking.
func TestHealthRecordOutOfRangeStep(t *testing.T) {
	h := newHealth(2)
	h.record(-1, ModuleSAM, LevelRelaxed, "before horizon")
	h.record(7, ModuleSAM, LevelCarry, "past horizon")
	if len(h.Events) != 2 || h.Counts[LevelRelaxed] != 1 || h.Counts[LevelCarry] != 1 {
		t.Errorf("events/counts wrong: %d events, counts %v", len(h.Events), h.Counts)
	}
	for i, w := range h.Worst {
		if w != LevelOK {
			t.Errorf("Worst[%d] = %s, want ok", i, w)
		}
	}
	if h.Summary() != "degraded 0/2 steps: relaxed-guarantees=1 carry-plan=1" {
		t.Errorf("Summary = %q", h.Summary())
	}
}
