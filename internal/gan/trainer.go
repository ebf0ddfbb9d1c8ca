package gan

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"

	"rfprotect/internal/geom"
	"rfprotect/internal/metrics"
	"rfprotect/internal/motion"
	"rfprotect/internal/nn"
)

// Trainer runs the adversarial game of Eq. 4 between a Generator and a
// Discriminator over a motion.Dataset.
type Trainer struct {
	Cfg Config
	G   *Generator
	D   *Discriminator

	optG *nn.Adam
	optD *nn.Adam
	rng  *rand.Rand
	ds   motion.Dataset

	// History records one TrainStats per training step.
	History []TrainStats

	// EvalEvery controls best-checkpoint selection: every EvalEvery steps
	// Train scores the generator against a held-out real sample and keeps
	// the best weights (GAN losses oscillate; sampling from the best
	// checkpoint is standard practice). 0 disables selection.
	EvalEvery int

	valReal   []geom.Trajectory
	bestScore float64
	bestG     []byte
}

// TrainStats summarizes one training step.
type TrainStats struct {
	Step      int
	LossD     float64
	LossG     float64
	RealScore float64 // mean D(real) probability
	FakeScore float64 // mean D(fake) probability
}

// NewTrainer builds a trainer with fresh networks.
func NewTrainer(cfg Config, ds motion.Dataset) *Trainer {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Trainer{
		Cfg:       cfg,
		G:         NewGenerator(cfg, rng),
		D:         NewDiscriminator(cfg, rng),
		optG:      nn.NewAdam(cfg.LRG),
		optD:      nn.NewAdam(cfg.LRD),
		rng:       rng,
		ds:        ds,
		EvalEvery: 10,
		bestScore: math.Inf(1),
	}
	// Hold out a slice of real traces for checkpoint scoring.
	n := len(ds.Traces)
	if n > 0 {
		k := n / 4
		if k > 128 {
			k = 128
		}
		if k < 1 {
			k = 1
		}
		t.valReal = ds.Traces[:k]
	}
	return t
}

// validationScore measures how far generated trajectories sit from the
// held-out real sample in FID feature space.
func (t *Trainer) validationScore() float64 {
	if len(t.valReal) < 2 {
		return 0
	}
	samples := t.Sample(64)
	return metrics.TrajectoryFID(samples, t.valReal)
}

// checkpointIfBest snapshots the generator when the validation score
// improves.
func (t *Trainer) checkpointIfBest() {
	score := t.validationScore()
	if score < t.bestScore {
		t.bestScore = score
		var buf bytes.Buffer
		if err := nn.Save(&buf, t.G); err == nil {
			t.bestG = buf.Bytes()
		}
	}
}

// UseBestCheckpoint restores the best generator weights seen during
// training (no-op if none were recorded).
func (t *Trainer) UseBestCheckpoint() {
	if t.bestG == nil {
		return
	}
	_ = nn.Load(bytes.NewReader(t.bestG), t.G)
}

// sampleReal draws a random labeled minibatch from the dataset as step
// sequences.
func (t *Trainer) sampleReal(batch int) ([]*nn.Mat, []int) {
	trs := make([]geom.Trajectory, batch)
	labels := make([]int, batch)
	for i := 0; i < batch; i++ {
		j := t.rng.Intn(len(t.ds.Traces))
		trs[i] = t.ds.Traces[j]
		labels[i] = t.ds.Labels[j]
	}
	return trajectoriesToSteps(trs, t.Cfg.SeqLen), labels
}

// sampleLabels draws labels matching the dataset's class distribution.
func (t *Trainer) sampleLabels(batch int) []int {
	out := make([]int, batch)
	for i := range out {
		out[i] = t.ds.Labels[t.rng.Intn(len(t.ds.Labels))]
	}
	return out
}

// Step runs one discriminator update followed by one generator update and
// returns the step's statistics.
func (t *Trainer) Step() TrainStats {
	cfg := t.Cfg
	batch := cfg.Batch
	stats := TrainStats{Step: len(t.History)}

	// ---- Discriminator update: real -> 1 (with light smoothing), fake -> 0.
	t.D.setTrain(true)
	t.G.setTrain(false)
	realSteps, realLabels := t.sampleReal(batch)
	nn.ZeroGrads(t.D)
	t.D.reset()
	logitsR := t.D.forward(realSteps, realLabels)
	targetsR := make([]float64, batch)
	for i := range targetsR {
		targetsR[i] = 0.9 // one-sided label smoothing stabilizes the game
	}
	lossR, dR := nn.BCEWithLogits(logitsR, targetsR)
	t.D.backward(dR, cfg.SeqLen, false)
	for _, z := range logitsR.Data {
		stats.RealScore += nn.Sigmoid(z) / float64(batch)
	}

	fakeLabels := t.sampleLabels(batch)
	t.G.reset()
	z := nn.RandMat(batch, cfg.LatentDim, 1, t.rng)
	fakeSteps := t.G.forward(z, fakeLabels)
	t.D.reset()
	logitsF := t.D.forward(fakeSteps, fakeLabels)
	targetsF := make([]float64, batch)
	lossF, dF := nn.BCEWithLogits(logitsF, targetsF)
	t.D.backward(dF, cfg.SeqLen, false)
	for _, lz := range logitsF.Data {
		stats.FakeScore += nn.Sigmoid(lz) / float64(batch)
	}
	nn.ClipGradNorm(t.D.Params(), cfg.ClipNorm)
	t.optD.Step(t.D.Params())
	stats.LossD = lossR + lossF

	// ---- Generator update: make D call fakes real (non-saturating loss).
	t.G.setTrain(true)
	t.D.setTrain(false)
	nn.ZeroGrads(t.G, t.D)
	genLabels := t.sampleLabels(batch)
	t.G.reset()
	z2 := nn.RandMat(batch, cfg.LatentDim, 1, t.rng)
	genSteps := t.G.forward(z2, genLabels)
	t.D.reset()
	logitsG := t.D.forward(genSteps, genLabels)
	targetsG := make([]float64, batch)
	for i := range targetsG {
		targetsG[i] = 1
	}
	lossG, dG := nn.BCEWithLogits(logitsG, targetsG)
	dsteps := t.D.backward(dG, cfg.SeqLen, true)
	if cfg.FeatureMatch > 0 {
		mmReal, _ := t.sampleReal(batch)
		mmLoss, mmGrads := momentMatchLoss(genSteps, mmReal)
		lossG += cfg.FeatureMatch * mmLoss
		for ti := range dsteps {
			for i := range dsteps[ti].Data {
				dsteps[ti].Data[i] += cfg.FeatureMatch * mmGrads[ti].Data[i]
			}
		}
	}
	t.G.backward(dsteps)
	nn.ClipGradNorm(t.G.Params(), cfg.ClipNorm)
	t.optG.Step(t.G.Params())
	stats.LossG = lossG

	t.History = append(t.History, stats)
	return stats
}

// Train runs the given number of steps, optionally logging every logEvery
// steps to w (nil disables logging).
func (t *Trainer) Train(steps int, logEvery int, w io.Writer) {
	for i := 0; i < steps; i++ {
		s := t.Step()
		if t.EvalEvery > 0 && (i%t.EvalEvery == t.EvalEvery-1 || i == steps-1) {
			t.checkpointIfBest()
		}
		if w != nil && logEvery > 0 && (i%logEvery == 0 || i == steps-1) {
			fmt.Fprintf(w, "step %4d  lossD %.4f  lossG %.4f  D(real) %.3f  D(fake) %.3f\n",
				s.Step, s.LossD, s.LossG, s.RealScore, s.FakeScore)
		}
	}
	t.UseBestCheckpoint()
}

// Sample draws count trajectories from the trained generator with labels
// drawn from the dataset's class distribution.
func (t *Trainer) Sample(count int) []geom.Trajectory {
	out := make([]geom.Trajectory, 0, count)
	for len(out) < count {
		label := t.ds.Labels[t.rng.Intn(len(t.ds.Labels))]
		n := count - len(out)
		if n > 32 {
			n = 32
		}
		out = append(out, t.G.Generate(n, label, t.rng)...)
	}
	return out
}

// Save writes both networks' weights to w.
func (t *Trainer) Save(w io.Writer) error { return nn.Save(w, t.G, t.D) }

// Load restores both networks' weights from r.
func (t *Trainer) Load(r io.Reader) error { return nn.Load(r, t.G, t.D) }
