package dvfs

import "testing"

func TestDefaultTable(t *testing.T) {
	tab := Default()
	if len(tab.Levels) != 6 {
		t.Fatalf("levels = %d, want 6 (1.6–3.4 GHz in 400 MHz steps)", len(tab.Levels))
	}
	if tab.Fmin().Freq != 1.6 || tab.Fmax().Freq != 3.4 {
		t.Errorf("range [%g, %g], want [1.6, 3.4]", tab.Fmin().Freq, tab.Fmax().Freq)
	}
	if tab.TransitionLatency != 500e-9 {
		t.Errorf("transition latency = %g, want 500 ns", tab.TransitionLatency)
	}
	for i := 1; i < len(tab.Levels); i++ {
		prev, cur := tab.Levels[i-1], tab.Levels[i]
		if cur.Freq <= prev.Freq {
			t.Errorf("frequency not ascending at level %d", i)
		}
		if cur.Volt <= prev.Volt {
			t.Errorf("voltage not ascending at level %d (V must rise with f)", i)
		}
	}
}

func TestIdealTable(t *testing.T) {
	tab := Ideal()
	if tab.TransitionLatency != 0 {
		t.Error("ideal transitions must be instantaneous")
	}
	if len(tab.Levels) != len(Default().Levels) {
		t.Error("ideal table must keep the same operating points")
	}
}

func TestByFreq(t *testing.T) {
	tab := Default()
	for _, l := range tab.Levels {
		got, err := tab.ByFreq(l.Freq)
		if err != nil || got != l {
			t.Errorf("ByFreq(%g) = %+v, %v", l.Freq, got, err)
		}
	}
	if _, err := tab.ByFreq(1.7); err == nil {
		t.Error("ByFreq of a missing level must error")
	}
}

func TestLevelFor(t *testing.T) {
	tab := Default()
	cases := []struct {
		req  float64
		want float64
	}{
		{0, 1.6},   // no work remaining: floor at fmin
		{-1, 1.6},  // negative requirement: floor at fmin
		{1.6, 1.6}, // exact level
		{1.7, 2.0}, // between levels: round up, never down
		{2.4, 2.4},
		{3.3, 3.4},
		{3.4, 3.4},
		{9.9, 3.4}, // infeasible deadline: saturate at fmax
	}
	for _, tc := range cases {
		if got := tab.LevelFor(tc.req).Freq; got != tc.want {
			t.Errorf("LevelFor(%g) = %g GHz, want %g", tc.req, got, tc.want)
		}
	}
}
