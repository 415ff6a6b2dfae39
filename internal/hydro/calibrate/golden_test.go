package calibrate

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"evop/internal/hydro"
	"evop/internal/hydro/fuse"
	"evop/internal/hydro/topmodel"
)

// mcDigest hashes everything a Monte Carlo result reports: each run's
// sample values, score bits, error text and retained simulation bits,
// in result order, then the failure count.
func mcDigest(res *MCResult) string {
	h := sha256.New()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { putU(math.Float64bits(v)) }
	putS := func(s string) {
		putU(uint64(len(s)))
		h.Write([]byte(s))
	}
	putU(uint64(len(res.Runs)))
	for _, r := range res.Runs {
		putU(uint64(len(r.Values)))
		for _, v := range r.Values {
			putF(v)
		}
		putF(r.Score)
		if r.Err != nil {
			putS(r.Err.Error())
		} else {
			putS("")
		}
		if r.Sim == nil {
			putU(math.MaxUint64)
			continue
		}
		putU(uint64(r.Sim.Start().UnixNano()))
		putU(uint64(r.Sim.Step()))
		putU(uint64(r.Sim.Len()))
		for _, v := range r.Sim.Raw() {
			putF(v)
		}
	}
	putU(uint64(res.Failed))
	return hex.EncodeToString(h.Sum(nil))
}

// fuseFactory maps a sample onto one FUSE structure (the third value
// picks the decision set) with two calibrated parameters. Samples with
// a negative KPerc fail to build, so the sweep carries error texts.
func fuseFactory(vals []float64) (hydro.Model, error) {
	decs := fuse.AllDecisions()
	p := fuse.DefaultParams()
	p.KPerc = vals[0]
	p.KBase = vals[1]
	return fuse.New(decs[int(vals[2])%len(decs)], p)
}

// TestMonteCarloGolden pins MonteCarlo's full result, bit for bit, for
// TOPMODEL and FUSE sweeps under two seeds and two objectives, on no
// pool and on pools of 1 to 8 workers. The digests were recorded before
// the sweep moved from per-worker scratch to the models' pooled Run.
func TestMonteCarloGolden(t *testing.T) {
	fx := newFixture(t)
	topmodelCfg := func(seed int64, obj Objective, keep float64) MCConfig {
		return MCConfig{
			Factory: func(vals []float64) (hydro.Model, error) {
				p := topmodel.DefaultParams()
				p.M = vals[0]
				p.LnTe = vals[1]
				return topmodel.New(p, fx.ti)
			},
			Ranges: []Range{
				{Name: "M", Lo: -10, Hi: 100},
				{Name: "LnTe", Lo: 2, Hi: 8},
			},
			Forcing: fx.forcing, Observed: fx.obs, Objective: obj,
			N: 48, Seed: seed, KeepSimsAbove: keep,
		}
	}
	fuseCfg := func(seed int64, obj Objective, keep float64) MCConfig {
		return MCConfig{
			Factory: func(vals []float64) (hydro.Model, error) {
				return fuseFactory(vals)
			},
			Ranges: []Range{
				{Name: "KPerc", Lo: -0.3, Hi: 3},
				{Name: "KBase", Lo: 0.001, Hi: 0.1, Log: true},
				{Name: "decision", Lo: 0, Hi: 24},
			},
			Forcing: fx.forcing, Observed: fx.obs, Objective: obj,
			N: 48, Seed: seed, KeepSimsAbove: keep,
		}
	}
	cases := []struct {
		name string
		cfg  MCConfig
		want string
	}{
		{"topmodel/nse/seed1", topmodelCfg(1, NSE, 0.3),
			"75dfb518605cc03df1e3253f42740594b5e18f599cb3315279c3f37f4c5df6c8"},
		{"topmodel/nse/seed7", topmodelCfg(7, NSE, 0.3),
			"c990706e05b078fd9548b8591523c51f7a9822c01b8e0212c977ada2385b2606"},
		{"topmodel/kge/seed1", topmodelCfg(1, KGE, 0.2),
			"6ae15505f6e92bfba97f6024178b5593f3c3887d1d0cd522f27a7ddeaf4aa262"},
		{"topmodel/kge/seed7", topmodelCfg(7, KGE, 0.2),
			"566b5a2920abc72688f0418499c87e9d0b7f9d6ec2e15eeecb1f10832006122e"},
		{"fuse/nse/seed1", fuseCfg(1, NSE, -1),
			"57340191640824798eee6207c2dd781661192ef067644067aa501afa0cdfa753"},
		{"fuse/nse/seed7", fuseCfg(7, NSE, -1),
			"feabbac3e211df86b8737ed9254ad23c778c8104b2e7d63a27089a8d42f07e6f"},
		{"fuse/kge/seed1", fuseCfg(1, KGE, 0),
			"b82ba1ce6b4413785546e344eb536095c2661eeabcdceed2131e5d030f942e3c"},
		{"fuse/kge/seed7", fuseCfg(7, KGE, 0),
			"b3252d80f5591ca4693d6f3c57817644751ae6d0addd6a9608e33796f75b8ad0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 4, 8} {
				cfg := tc.cfg
				if workers > 0 {
					cfg.Pool = newPool(t, workers)
				}
				res, err := MonteCarlo(context.Background(), cfg)
				if err != nil {
					t.Fatalf("workers=%d: MonteCarlo: %v", workers, err)
				}
				kept := 0
				for _, r := range res.Runs {
					if r.Sim != nil {
						kept++
					}
				}
				// The digest must cover failed, retained and dropped runs.
				if res.Failed == 0 || kept == 0 || kept+res.Failed == len(res.Runs) {
					t.Fatalf("workers=%d: failed=%d kept=%d of %d: the case no longer exercises every run kind",
						workers, res.Failed, kept, len(res.Runs))
				}
				if got := mcDigest(res); got != tc.want {
					t.Errorf("workers=%d: digest %s, want %s", workers, got, tc.want)
				}
			}
		})
	}
}
