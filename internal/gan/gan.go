// Package gan implements the paper's conditional GAN for human-trajectory
// synthesis (Fig. 6, Eq. 4): a generator that maps a Gaussian noise vector
// and an embedded range-class label through a fully connected layer and a
// two-layer LSTM to a 50-point 2-D trajectory, and a discriminator that
// scores trajectories with an embedding + FC + bidirectional LSTM + FC +
// sigmoid stack.
//
// Trajectories are modeled as step sequences (per-sample displacements) and
// integrated to positions; the discriminator sees both positions and steps.
package gan

import (
	"math/rand"

	"rfprotect/internal/geom"
	"rfprotect/internal/motion"
	"rfprotect/internal/nn"
)

// Config sets the cGAN architecture and training hyperparameters.
// The paper trains with hidden size 512, dropout 0.5, Adam at 1e-4 (G) and
// 2e-4 (D), batch 128, on a GPU for 5 hours; DefaultConfig shrinks the
// hidden state so laptop-scale CPU training converges in seconds-to-minutes
// while keeping the architecture identical.
type Config struct {
	LatentDim  int     // dimension of the Gaussian noise z
	EmbedDim   int     // label embedding size
	Hidden     int     // LSTM hidden size (paper: 512)
	SeqLen     int     // trajectory length (50)
	NumClasses int     // range classes (5)
	Dropout    float64 // LSTM dropout (paper: 0.5)
	LRG        float64 // generator learning rate (paper: 1e-4)
	LRD        float64 // discriminator learning rate (paper: 2e-4)
	Batch      int     // minibatch size (paper: 128)
	ClipNorm   float64 // gradient clipping
	// FeatureMatch weights the moment-matching auxiliary generator loss
	// (featurematch.go); 0 disables it.
	FeatureMatch float64
	Seed         int64
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		LatentDim:    16,
		EmbedDim:     8,
		Hidden:       32,
		SeqLen:       motion.TraceLen,
		NumClasses:   motion.NumClasses,
		Dropout:      0.2,
		LRG:          1e-3,
		LRD:          2e-3,
		Batch:        32,
		ClipNorm:     5,
		FeatureMatch: 150,
		Seed:         1,
	}
}

// PaperConfig returns the paper's full-size hyperparameters (§9.2). CPU
// training at this size is slow; it exists for fidelity runs.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Hidden = 512
	c.Dropout = 0.5
	c.LRG = 1e-4
	c.LRD = 2e-4
	c.Batch = 128
	return c
}

// Generator is G(z|n) of Fig. 6.
type Generator struct {
	cfg   Config
	Emb   *nn.Embedding
	Seed  *nn.Linear // (latent+embed) -> hidden, feeds the LSTM each step
	LSTM1 *nn.LSTM
	Drop1 *nn.Dropout
	LSTM2 *nn.LSTM
	Drop2 *nn.Dropout
	Out   *nn.Linear // hidden -> 2, squashed to a bounded displacement
	tanh  *nn.TanhLayer
}

// maxStep bounds the per-sample displacement to 0.5 m (2.5 m/s at the 5 Hz
// trace rate) via a tanh output head — an architectural prior that keeps
// every generated trajectory inside human-plausible speeds, which both
// stabilizes adversarial training and mirrors the physical reality that the
// corpus cannot contain faster steps.
const maxStep = 0.5

// NewGenerator builds the generator.
func NewGenerator(cfg Config, rng *rand.Rand) *Generator {
	return &Generator{
		cfg:   cfg,
		Emb:   nn.NewEmbedding(cfg.NumClasses, cfg.EmbedDim, rng),
		Seed:  nn.NewLinear(cfg.LatentDim+cfg.EmbedDim, cfg.Hidden, rng),
		LSTM1: nn.NewLSTM(cfg.Hidden, cfg.Hidden, rng),
		Drop1: nn.NewDropout(cfg.Dropout, rng),
		LSTM2: nn.NewLSTM(cfg.Hidden, cfg.Hidden, rng),
		Drop2: nn.NewDropout(cfg.Dropout, rng),
		Out:   nn.NewLinear(cfg.Hidden, 2, rng),
		tanh:  &nn.TanhLayer{},
	}
}

// Params implements nn.Module.
func (g *Generator) Params() []*nn.Param {
	return nn.CollectParams(g.Emb, g.Seed, g.LSTM1, g.LSTM2, g.Out)
}

// reset clears all forward caches.
func (g *Generator) reset() {
	g.Emb.Reset()
	g.Seed.Reset()
	g.LSTM1.Reset()
	g.Drop1.Reset()
	g.LSTM2.Reset()
	g.Drop2.Reset()
	g.Out.Reset()
	g.tanh.Reset()
}

// setTrain toggles dropout.
func (g *Generator) setTrain(train bool) {
	g.Drop1.Train = train
	g.Drop2.Train = train
}

// forward produces per-step displacement matrices (SeqLen of batch×2).
func (g *Generator) forward(z *nn.Mat, labels []int) []*nn.Mat {
	emb := g.Emb.Forward(labels)
	seed := g.Seed.Forward(nn.ConcatCols(z, emb))
	// The seed is the LSTM input at every timestep.
	xs := make([]*nn.Mat, g.cfg.SeqLen)
	for t := range xs {
		xs[t] = seed
	}
	h1 := g.LSTM1.Forward(xs)
	d1 := make([]*nn.Mat, len(h1))
	for t, h := range h1 {
		d1[t] = g.Drop1.Forward(h)
	}
	h2 := g.LSTM2.Forward(d1)
	steps := make([]*nn.Mat, len(h2))
	for t, h := range h2 {
		raw := g.tanh.Forward(g.Out.Forward(g.Drop2.Forward(h)))
		steps[t] = raw.Scale(maxStep)
	}
	return steps
}

// backward propagates per-step displacement gradients dsteps through the
// generator, accumulating parameter gradients.
func (g *Generator) backward(dsteps []*nn.Mat) {
	n := len(dsteps)
	dh2 := make([]*nn.Mat, n)
	for t := n - 1; t >= 0; t-- {
		dd := g.Out.Backward(g.tanh.Backward(dsteps[t].Scale(maxStep)))
		dh2[t] = g.Drop2.Backward(dd)
	}
	dd1 := g.LSTM2.Backward(dh2)
	dh1 := make([]*nn.Mat, n)
	for t := n - 1; t >= 0; t-- {
		dh1[t] = g.Drop1.Backward(dd1[t])
	}
	dxs := g.LSTM1.Backward(dh1)
	// The seed fed every timestep: gradients sum.
	dSeed := dxs[0].Clone()
	for t := 1; t < n; t++ {
		nn.AddInto(dSeed, dxs[t])
	}
	dcat := g.Seed.Backward(dSeed)
	_, dEmb := nn.SplitCols(dcat, g.cfg.LatentDim)
	g.Emb.Backward(dEmb)
}

// Generate samples count trajectories of the given class label (inference
// mode, dropout off). Trajectories start at the origin.
func (g *Generator) Generate(count int, label int, rng *rand.Rand) []geom.Trajectory {
	g.setTrain(false)
	defer g.reset()
	z := nn.RandMat(count, g.cfg.LatentDim, 1, rng)
	labels := make([]int, count)
	for i := range labels {
		labels[i] = label
	}
	steps := g.forward(z, labels)
	return stepsToTrajectories(steps)
}

// stepsToTrajectories integrates per-step displacements into positions.
func stepsToTrajectories(steps []*nn.Mat) []geom.Trajectory {
	if len(steps) == 0 {
		return nil
	}
	batch := steps[0].Rows
	out := make([]geom.Trajectory, batch)
	for b := 0; b < batch; b++ {
		tr := make(geom.Trajectory, len(steps))
		var p geom.Point
		for t, s := range steps {
			p = p.Add(geom.Point{X: s.Data[b*2], Y: s.Data[b*2+1]})
			tr[t] = p
		}
		out[b] = tr
	}
	return out
}

// trajectoriesToSteps converts origin-anchored trajectories to per-step
// displacement matrices (first step = first point).
func trajectoriesToSteps(trs []geom.Trajectory, seqLen int) []*nn.Mat {
	steps := make([]*nn.Mat, seqLen)
	for t := range steps {
		steps[t] = nn.NewMat(len(trs), 2)
	}
	for b, tr := range trs {
		r := tr
		if len(tr) != seqLen {
			r = tr.Resample(seqLen)
		}
		var prev geom.Point
		for t := 0; t < seqLen; t++ {
			d := r[t].Sub(prev)
			prev = r[t]
			steps[t].Data[b*2] = d.X
			steps[t].Data[b*2+1] = d.Y
		}
	}
	return steps
}

// Discriminator is D(x|n) of Fig. 6.
type Discriminator struct {
	cfg  Config
	Emb  *nn.Embedding
	In   *nn.Linear // (4 + embed) -> hidden
	Bi   *nn.BiLSTM
	Drop *nn.Dropout
	Head *nn.Linear // 2*hidden -> 1 (logit; sigmoid fused in the loss)
}

// NewDiscriminator builds the discriminator.
func NewDiscriminator(cfg Config, rng *rand.Rand) *Discriminator {
	return &Discriminator{
		cfg:  cfg,
		Emb:  nn.NewEmbedding(cfg.NumClasses, cfg.EmbedDim, rng),
		In:   nn.NewLinear(4+cfg.EmbedDim, cfg.Hidden, rng),
		Bi:   nn.NewBiLSTM(cfg.Hidden, cfg.Hidden, rng),
		Drop: nn.NewDropout(cfg.Dropout, rng),
		Head: nn.NewLinear(2*cfg.Hidden, 1, rng),
	}
}

// Params implements nn.Module.
func (d *Discriminator) Params() []*nn.Param {
	return nn.CollectParams(d.Emb, d.In, d.Bi, d.Head)
}

func (d *Discriminator) reset() {
	d.Emb.Reset()
	d.In.Reset()
	d.Bi.Reset()
	d.Drop.Reset()
	d.Head.Reset()
}

func (d *Discriminator) setTrain(train bool) { d.Drop.Train = train }

// forward scores a batch of step sequences, returning logits (batch×1).
// Each timestep sees [position, step, label embedding]; the BiLSTM outputs
// are mean-pooled before the head.
func (d *Discriminator) forward(steps []*nn.Mat, labels []int) *nn.Mat {
	n := len(steps)
	batch := steps[0].Rows
	// Integrate positions alongside steps.
	pos := make([]*nn.Mat, n)
	run := nn.NewMat(batch, 2)
	for t, s := range steps {
		nn.AddInto(run, s)
		pos[t] = run.Clone()
	}
	xs := make([]*nn.Mat, n)
	for t := 0; t < n; t++ {
		emb := d.Emb.Forward(labels)
		xs[t] = d.In.Forward(nn.ConcatCols(nn.ConcatCols(pos[t], steps[t]), emb))
	}
	hs := d.Bi.Forward(xs)
	pooled := nn.NewMat(batch, 2*d.cfg.Hidden)
	for _, h := range hs {
		nn.AddInto(pooled, h)
	}
	for i := range pooled.Data {
		pooled.Data[i] /= float64(n)
	}
	return d.Head.Forward(d.Drop.Forward(pooled))
}

// backward propagates the logit gradient, returning per-step input
// gradients (for generator training); pass wantInputGrad=false to skip
// their computation (discriminator update).
func (d *Discriminator) backward(dlogits *nn.Mat, n int, wantInputGrad bool) []*nn.Mat {
	dpool := d.Drop.Backward(d.Head.Backward(dlogits))
	dhs := make([]*nn.Mat, n)
	for t := 0; t < n; t++ {
		g := dpool.Clone()
		for i := range g.Data {
			g.Data[i] /= float64(n)
		}
		dhs[t] = g
	}
	dxs := d.Bi.Backward(dhs)
	dstepsTotal := make([]*nn.Mat, n)
	batch := dlogits.Rows
	// dpos accumulated from later timesteps (positions are cumulative sums).
	dposRun := nn.NewMat(batch, 2)
	for t := n - 1; t >= 0; t-- {
		dcat := d.In.Backward(dxs[t])
		posStep, dEmb := nn.SplitCols(dcat, 4)
		d.Emb.Backward(dEmb)
		if wantInputGrad {
			dpos, dstep := nn.SplitCols(posStep, 2)
			// position t depends on all steps <= t: accumulate.
			nn.AddInto(dposRun, dpos)
			total := dstep.Clone()
			nn.AddInto(total, dposRun)
			dstepsTotal[t] = total
		}
	}
	if !wantInputGrad {
		return nil
	}
	return dstepsTotal
}
