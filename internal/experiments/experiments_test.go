package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

func TestFig7Shape(t *testing.T) {
	r := Fig7()
	if len(r.MI) != len(r.Ms) {
		t.Fatal("curve count")
	}
	for i := range r.Ms {
		// Endpoints equal H(X); interior dips.
		if math.Abs(r.MI[i][0]-r.EntropyX) > 1e-9 {
			t.Fatalf("M=%d q=0: %v != H(X) %v", r.Ms[i], r.MI[i][0], r.EntropyX)
		}
		last := r.MI[i][len(r.MI[i])-1]
		if math.Abs(last-r.EntropyX) > 1e-9 {
			t.Fatalf("M=%d q=1: %v != H(X)", r.Ms[i], last)
		}
		q, mi := r.MinMI(i)
		if q < 0.2 || q > 0.8 {
			t.Fatalf("M=%d min at q=%v, expected interior dip", r.Ms[i], q)
		}
		if mi >= r.EntropyX {
			t.Fatalf("M=%d no dip", r.Ms[i])
		}
	}
	// More phantoms leak less at the dip.
	_, mi2 := r.MinMI(0)
	_, mi8 := r.MinMI(len(r.Ms) - 1)
	if mi8 >= mi2 {
		t.Fatalf("M=8 dip %v not below M=2 dip %v", mi8, mi2)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Fig 7") {
		t.Fatal("print output")
	}
}

func TestFig9LocalizationAccuracy(t *testing.T) {
	r, err := Fig9Ctx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shapes) != 2 {
		t.Fatal("shape count")
	}
	for _, s := range r.Shapes {
		if s.MedianError > 0.35 {
			t.Fatalf("%s median localization error %v m", s.Name, s.MedianError)
		}
		if len(s.Detected) < len(s.GroundTruth)/2 {
			t.Fatalf("%s detected only %d points", s.Name, len(s.Detected))
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "median error") {
		t.Fatal("print output")
	}
}

func TestFig10ProfilesAndSpoof(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the shared cGAN")
	}
	r, err := Fig10Ctx(context.Background(), Quick(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// The ghost's moving-reflection power must be comparable to the
	// human's: within 10 dB either way (frame differencing responds to the
	// exact inter-frame phase change, so "identical" is qualitative).
	ratio := r.GhostPeak / r.HumanPeak
	if ratio < 0.1 || ratio > 10 {
		t.Fatalf("ghost/human peak power ratio %v", ratio)
	}
	if len(r.Spoofed) < 10 {
		t.Fatalf("spoofed trajectory has %d matched points", len(r.Spoofed))
	}
	if r.MeanError > 0.6 {
		t.Fatalf("spoofed vs generated mean error %v m", r.MeanError)
	}
}

func TestFig11AccuracyBands(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the shared cGAN")
	}
	r, err := Fig11Ctx(context.Background(), Quick(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Envs) != 2 {
		t.Fatal("environment count")
	}
	home, office := r.Envs[0], r.Envs[1]
	if home.Room != "home" || office.Room != "office" {
		t.Fatalf("rooms %s/%s", home.Room, office.Room)
	}
	for _, e := range r.Envs {
		if e.Trajectories == 0 {
			t.Fatalf("%s: no trajectories measured", e.Room)
		}
		// Medians within sane bands: distance within ~1.5 range bins,
		// angle below ~10 deg, location below ~0.5 m.
		if e.MedianDistance > 1.5*r.RangeResolution {
			t.Fatalf("%s median distance error %v m", e.Room, e.MedianDistance)
		}
		if e.MedianAngle > 10 {
			t.Fatalf("%s median angle error %v deg", e.Room, e.MedianAngle)
		}
		if e.MedianLocation > 0.5 {
			t.Fatalf("%s median location error %v m", e.Room, e.MedianLocation)
		}
	}
	// CDF accessors work.
	for _, which := range []string{"distance", "angle", "location"} {
		if cdf := r.CDF(0, which); len(cdf) == 0 {
			t.Fatalf("empty CDF for %s", which)
		}
	}
	if r.CDF(0, "bogus") != nil {
		t.Fatal("bogus CDF name should be nil")
	}
}

func TestFig12OrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the shared cGAN")
	}
	r := Fig12(Quick(), 3)
	gan := r.NormalizedFID["GAN"]
	single := r.NormalizedFID["SingleTraj"]
	ulm := r.NormalizedFID["ULM"]
	random := r.NormalizedFID["Random"]
	if r.NormalizedFID["Real"] != 1 {
		t.Fatal("real baseline must be 1")
	}
	// The paper's qualitative claim: GAN beats every handcrafted baseline,
	// random motion is the worst.
	if !(gan < single && gan < ulm && gan < random) {
		t.Fatalf("GAN %v not best (single %v, ulm %v, random %v)", gan, single, ulm, random)
	}
	if !(random > single && random > ulm) {
		t.Fatalf("random %v not worst (single %v, ulm %v)", random, single, ulm)
	}
	if len(r.RealSamples) == 0 || len(r.GANSamples) == 0 {
		t.Fatal("missing sample trajectories for Fig 12 left")
	}
}

func TestTable1JudgesAtChance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the shared cGAN")
	}
	r := Table1(Quick(), 4)
	total := r.Table.RealReal + r.Table.RealFake + r.Table.FakeReal + r.Table.FakeFake
	if total != r.Judges*r.PerJudge {
		t.Fatalf("table total %d, want %d", total, r.Judges*r.PerJudge)
	}
	if !r.Independent {
		t.Fatalf("judges separated real from fake: chi2=%v p=%v table=%+v", r.Chi2, r.P, r.Table)
	}
	// Both perceived-real rates in a sane band around chance.
	realRate := float64(r.Table.RealReal) / float64(r.Table.RealReal+r.Table.RealFake)
	fakeRate := float64(r.Table.FakeReal) / float64(r.Table.FakeReal+r.Table.FakeFake)
	if math.Abs(realRate-fakeRate) > 0.25 {
		t.Fatalf("perceived-real rates diverge: real %v fake %v", realRate, fakeRate)
	}
}

func TestFig13LegitimateSensing(t *testing.T) {
	r, err := Fig13Ctx(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.EavesdropperTracks < 2 {
		t.Fatalf("eavesdropper tracks %d, want >= 2", r.EavesdropperTracks)
	}
	if r.GhostTracksRemoved == 0 {
		t.Fatal("ghost not removed")
	}
	if r.HumanTracksKept == 0 {
		t.Fatal("human track lost")
	}
	if r.HumanError > 0.5 {
		t.Fatalf("kept human error %v m", r.HumanError)
	}
}

func TestFig14BreathingRates(t *testing.T) {
	r, err := Fig14Ctx(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.HumanRate-r.TrueRate) > 0.05 {
		t.Fatalf("human rate %v, want %v", r.HumanRate, r.TrueRate)
	}
	if math.Abs(r.GhostRate-r.TrueRate) > 0.05 {
		t.Fatalf("ghost rate %v, want %v", r.GhostRate, r.TrueRate)
	}
	if len(r.HumanPhase) != len(r.GhostPhase) || len(r.HumanPhase) == 0 {
		t.Fatal("phase series lengths")
	}
}

func TestRunDispatcher(t *testing.T) {
	var buf bytes.Buffer
	if err := RunCtx(context.Background(), "fig7", Quick(), 1, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	if err := RunCtx(context.Background(), "nope", Quick(), 1, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	names := Names()
	if len(names) != 13 {
		t.Fatalf("names = %v", names)
	}
}
