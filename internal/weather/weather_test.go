package weather

import (
	"errors"
	"math"
	"testing"
	"time"

	"evop/internal/timeseries"
)

var t0 = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

func mustGen(t *testing.T, seed int64) *Generator {
	t.Helper()
	g, err := NewGenerator(UKUplandClimate(), seed)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func TestClimateValidate(t *testing.T) {
	base := UKUplandClimate()
	if err := base.Validate(); err != nil {
		t.Fatalf("default climate invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Climate)
	}{
		{"negative pWetDry", func(c *Climate) { c.PWetGivenDry = -0.1 }},
		{"pWetWet > 1", func(c *Climate) { c.PWetGivenWet = 1.5 }},
		{"zero depth", func(c *Climate) { c.MeanWetDepthMM = 0 }},
		{"zero shape", func(c *Climate) { c.GammaShape = 0 }},
		{"amplitude 1", func(c *Climate) { c.SeasonalAmplitude = 1 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mutate(&c)
			if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Validate = %v, want ErrBadConfig", err)
			}
			if _, err := NewGenerator(c, 1); err == nil {
				t.Fatal("NewGenerator accepted invalid climate")
			}
		})
	}
}

func TestRainfallDeterministic(t *testing.T) {
	a, err := mustGen(t, 42).Rainfall(t0, time.Hour, 500)
	if err != nil {
		t.Fatalf("Rainfall: %v", err)
	}
	b, err := mustGen(t, 42).Rainfall(t0, time.Hour, 500)
	if err != nil {
		t.Fatalf("Rainfall: %v", err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a.At(i), b.At(i))
		}
	}
	c, _ := mustGen(t, 43).Rainfall(t0, time.Hour, 500)
	same := true
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != c.At(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical rainfall")
	}
}

func TestRainfallStatistics(t *testing.T) {
	// One simulated year at an hourly step.
	n := 24 * 365
	rain, err := mustGen(t, 7).Rainfall(t0, time.Hour, n)
	if err != nil {
		t.Fatalf("Rainfall: %v", err)
	}
	st := rain.Summarise()
	if st.Min < 0 {
		t.Fatalf("negative rainfall %v", st.Min)
	}
	annual := st.Sum
	if annual < 500 || annual > 3000 {
		t.Fatalf("annual rainfall = %.0f mm, want UK-upland-like 500..3000", annual)
	}
	// Wet fraction should reflect Markov persistence: not drizzle every
	// hour, not bone dry.
	wet := 0
	for i := 0; i < rain.Len(); i++ {
		if rain.At(i) > 0 {
			wet++
		}
	}
	frac := float64(wet) / float64(n)
	if frac < 0.05 || frac > 0.5 {
		t.Fatalf("wet fraction = %.2f, want 0.05..0.5", frac)
	}
}

func TestRainfallWetSpellClustering(t *testing.T) {
	// Markov persistence means P(wet|wet) observed > P(wet) overall.
	rain, _ := mustGen(t, 11).Rainfall(t0, time.Hour, 24*365)
	var wet, wetAfterWet, wetPairs int
	for i := 0; i < rain.Len(); i++ {
		if rain.At(i) > 0 {
			wet++
		}
		if i > 0 && rain.At(i-1) > 0 {
			wetPairs++
			if rain.At(i) > 0 {
				wetAfterWet++
			}
		}
	}
	pWet := float64(wet) / float64(rain.Len())
	pWetGivenWet := float64(wetAfterWet) / float64(wetPairs)
	if pWetGivenWet <= pWet {
		t.Fatalf("no clustering: P(wet|wet)=%.2f <= P(wet)=%.2f", pWetGivenWet, pWet)
	}
}

func TestRainfallSeasonality(t *testing.T) {
	rain, _ := mustGen(t, 3).Rainfall(t0, time.Hour, 24*365)
	jan, err := rain.Slice(t0, t0.AddDate(0, 1, 0))
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	jul, err := rain.Slice(t0.AddDate(0, 6, 0), t0.AddDate(0, 7, 0))
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if jan.Summarise().Sum <= jul.Summarise().Sum {
		t.Fatalf("winter (%.0f mm) not wetter than summer (%.0f mm)",
			jan.Summarise().Sum, jul.Summarise().Sum)
	}
}

func TestTemperatureCycles(t *testing.T) {
	temp, err := mustGen(t, 5).Temperature(t0, time.Hour, 24*365)
	if err != nil {
		t.Fatalf("Temperature: %v", err)
	}
	st := temp.Summarise()
	if st.Mean < 4 || st.Mean > 13 {
		t.Fatalf("mean temperature = %.1f C, want near 8.5", st.Mean)
	}
	jan, _ := temp.Slice(t0, t0.AddDate(0, 1, 0))
	jul, _ := temp.Slice(t0.AddDate(0, 6, 0), t0.AddDate(0, 7, 0))
	if jul.Summarise().Mean-jan.Summarise().Mean < 5 {
		t.Fatalf("seasonal contrast too small: Jul=%.1f Jan=%.1f",
			jul.Summarise().Mean, jan.Summarise().Mean)
	}
}

func TestNegativeLengths(t *testing.T) {
	g := mustGen(t, 1)
	if _, err := g.Rainfall(t0, time.Hour, -1); err == nil {
		t.Fatal("Rainfall(-1): want error")
	}
	if _, err := g.Temperature(t0, time.Hour, -1); err == nil {
		t.Fatal("Temperature(-1): want error")
	}
}

func TestDesignStormValidate(t *testing.T) {
	tests := []struct {
		name  string
		storm DesignStorm
		ok    bool
	}{
		{"valid", DesignStorm{50, 6 * time.Hour, 0.4}, true},
		{"zero depth", DesignStorm{0, 6 * time.Hour, 0.4}, false},
		{"zero duration", DesignStorm{50, 0, 0.4}, false},
		{"peak 0", DesignStorm{50, 6 * time.Hour, 0}, false},
		{"peak 1", DesignStorm{50, 6 * time.Hour, 1}, false},
		{"NaN depth", DesignStorm{math.NaN(), 6 * time.Hour, 0.4}, false},
		{"+Inf depth", DesignStorm{math.Inf(1), 6 * time.Hour, 0.4}, false},
		{"-Inf depth", DesignStorm{math.Inf(-1), 6 * time.Hour, 0.4}, false},
		{"NaN peak", DesignStorm{50, 6 * time.Hour, math.NaN()}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.storm.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Validate = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestDesignStormInjectPreservesMass(t *testing.T) {
	base, err := timeseries.Zeros(t0, time.Hour, 48)
	if err != nil {
		t.Fatalf("Zeros: %v", err)
	}
	storm := DesignStorm{TotalDepthMM: 60, Duration: 6 * time.Hour, PeakFraction: 0.4}
	got, err := storm.Inject(base, t0.Add(12*time.Hour))
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if math.Abs(got.Summarise().Sum-60) > 1e-9 {
		t.Fatalf("injected mass = %v, want 60", got.Summarise().Sum)
	}
	if base.Summarise().Sum != 0 {
		t.Fatal("Inject mutated the input series")
	}
	// The peak should fall near 40% through the storm window.
	st := got.Summarise()
	peakOffset := got.TimeAt(st.ArgMax).Sub(t0.Add(12 * time.Hour))
	if peakOffset < time.Hour || peakOffset > 3*time.Hour {
		t.Fatalf("peak at +%v, want ~+2.4h", peakOffset)
	}
}

func TestDesignStormInjectClipsOutside(t *testing.T) {
	base, _ := timeseries.Zeros(t0, time.Hour, 4)
	storm := DesignStorm{TotalDepthMM: 60, Duration: 6 * time.Hour, PeakFraction: 0.4}
	got, err := storm.Inject(base, t0.Add(2*time.Hour))
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if got.Summarise().Sum >= 60 {
		t.Fatalf("mass should be clipped, got %v", got.Summarise().Sum)
	}
	if _, err := storm.Inject(base, t0); err != nil {
		t.Fatalf("Inject at start: %v", err)
	}
	bad := DesignStorm{TotalDepthMM: -1, Duration: time.Hour, PeakFraction: 0.5}
	if _, err := bad.Inject(base, t0); err == nil {
		t.Fatal("invalid storm: want error")
	}
}

func TestDesignStormShortDuration(t *testing.T) {
	base, _ := timeseries.Zeros(t0, time.Hour, 10)
	storm := DesignStorm{TotalDepthMM: 10, Duration: time.Minute, PeakFraction: 0.5}
	got, err := storm.Inject(base, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if math.Abs(got.At(3)-10) > 1e-9 {
		t.Fatalf("sub-step storm should land in one bucket, got %v", got.Values())
	}
}
