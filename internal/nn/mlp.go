// Package nn implements the paper's DNN baseline: a four-layer multilayer
// perceptron (input, two hidden layers, output) over HOG features, trained
// with minibatch SGD + momentum on a softmax cross-entropy loss. Weight
// quantisation to 16/8/4 bits supports the robustness study (Table 2) and
// the hardware model's precision-dependent cost accounting (Figure 7).
package nn

import (
	"errors"
	"fmt"
	"math"

	"hdface/internal/hv"
)

// Config describes the network geometry and training hyperparameters.
type Config struct {
	In, H1, H2, Out int
	LR              float64 // learning rate (default 0.05)
	Momentum        float64 // (default 0.9)
	Batch           int     // minibatch size (default 16)
	Epochs          int     // (default 30)
	Seed            uint64
}

func (c Config) withDefaults() Config {
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	return c
}

// Stats counts multiply-accumulate work for the hardware model.
type Stats struct {
	ForwardMACs  int64
	BackwardMACs int64
	Updates      int64
}

// layer is one dense layer with momentum buffers.
type layer struct {
	in, out int
	w       []float64 // out x in
	b       []float64
	vw, vb  []float64
}

func newLayer(in, out int, r *hv.RNG) *layer {
	l := &layer{in: in, out: out,
		w: make([]float64, in*out), b: make([]float64, out),
		vw: make([]float64, in*out), vb: make([]float64, out)}
	// He initialisation for ReLU nets.
	s := math.Sqrt(2 / float64(in))
	for i := range l.w {
		l.w[i] = r.NormFloat64() * s
	}
	return l
}

// MLP is the four-layer baseline network.
type MLP struct {
	Cfg        Config
	l1, l2, l3 *layer
	rng        *hv.RNG
	Stats      Stats
}

// New builds an MLP with the given configuration.
func New(cfg Config) (*MLP, error) {
	cfg = cfg.withDefaults()
	if cfg.In <= 0 || cfg.H1 <= 0 || cfg.H2 <= 0 || cfg.Out < 2 {
		return nil, fmt.Errorf("nn: invalid geometry %d-%d-%d-%d", cfg.In, cfg.H1, cfg.H2, cfg.Out)
	}
	r := hv.NewRNG(cfg.Seed ^ 0x6e6e)
	return &MLP{Cfg: cfg,
		l1:  newLayer(cfg.In, cfg.H1, r),
		l2:  newLayer(cfg.H1, cfg.H2, r),
		l3:  newLayer(cfg.H2, cfg.Out, r),
		rng: r}, nil
}

// forward runs one sample, returning all activations (post-ReLU for hidden
// layers, logits for the output layer).
func (m *MLP) forward(x []float64) (a1, a2, logits []float64) {
	a1 = m.dense(m.l1, x, true)
	a2 = m.dense(m.l2, a1, true)
	logits = m.dense(m.l3, a2, false)
	return
}

func (m *MLP) dense(l *layer, x []float64, relu bool) []float64 {
	out := make([]float64, l.out)
	for o := 0; o < l.out; o++ {
		s := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, xv := range x {
			s += row[i] * xv
		}
		if relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
	m.Stats.ForwardMACs += int64(l.in) * int64(l.out)
	return out
}

// softmax converts logits to probabilities in place and returns them.
func softmax(z []float64) []float64 {
	maxz := z[0]
	for _, v := range z {
		if v > maxz {
			maxz = v
		}
	}
	var sum float64
	for i, v := range z {
		z[i] = math.Exp(v - maxz)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
	return z
}

// Predict returns the argmax class for features x.
func (m *MLP) Predict(x []float64) int {
	if len(x) != m.Cfg.In {
		panic(fmt.Sprintf("nn: got %d features, want %d", len(x), m.Cfg.In))
	}
	_, _, logits := m.forward(x)
	best := 0
	for c, v := range logits {
		if v > logits[best] {
			best = c
		}
	}
	return best
}

// Train runs SGD over the dataset and returns the final average training
// loss per epoch.
func (m *MLP) Train(xs [][]float64, ys []int) ([]float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, errors.New("nn: features and labels must be non-empty and aligned")
	}
	for _, x := range xs {
		if len(x) != m.Cfg.In {
			return nil, fmt.Errorf("nn: feature length %d, want %d", len(x), m.Cfg.In)
		}
	}
	losses := make([]float64, 0, m.Cfg.Epochs)
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < m.Cfg.Epochs; e++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += m.Cfg.Batch {
			end := start + m.Cfg.Batch
			if end > len(idx) {
				end = len(idx)
			}
			epochLoss += m.step(xs, ys, idx[start:end])
		}
		losses = append(losses, epochLoss/float64(len(xs)))
	}
	return losses, nil
}

// step accumulates gradients over one minibatch and applies a momentum
// update. Returns the summed loss.
func (m *MLP) step(xs [][]float64, ys []int, batch []int) float64 {
	g1w := make([]float64, len(m.l1.w))
	g1b := make([]float64, len(m.l1.b))
	g2w := make([]float64, len(m.l2.w))
	g2b := make([]float64, len(m.l2.b))
	g3w := make([]float64, len(m.l3.w))
	g3b := make([]float64, len(m.l3.b))
	var loss float64
	for _, i := range batch {
		x, y := xs[i], ys[i]
		a1, a2, logits := m.forward(x)
		p := softmax(logits)
		loss += -math.Log(math.Max(p[y], 1e-12))
		// dL/dlogits = p - onehot(y)
		d3 := p // reuse
		d3[y] -= 1
		// layer 3 grads + backprop into a2
		d2 := make([]float64, m.Cfg.H2)
		for o := 0; o < m.Cfg.Out; o++ {
			row := m.l3.w[o*m.Cfg.H2 : (o+1)*m.Cfg.H2]
			g := d3[o]
			g3b[o] += g
			for j, a := range a2 {
				g3w[o*m.Cfg.H2+j] += g * a
				d2[j] += g * row[j]
			}
		}
		m.Stats.BackwardMACs += 2 * int64(m.Cfg.Out) * int64(m.Cfg.H2)
		for j := range d2 {
			if a2[j] <= 0 {
				d2[j] = 0
			}
		}
		d1 := make([]float64, m.Cfg.H1)
		for o := 0; o < m.Cfg.H2; o++ {
			row := m.l2.w[o*m.Cfg.H1 : (o+1)*m.Cfg.H1]
			g := d2[o]
			if g == 0 {
				continue
			}
			g2b[o] += g
			for j, a := range a1 {
				g2w[o*m.Cfg.H1+j] += g * a
				d1[j] += g * row[j]
			}
		}
		m.Stats.BackwardMACs += 2 * int64(m.Cfg.H2) * int64(m.Cfg.H1)
		for j := range d1 {
			if a1[j] <= 0 {
				d1[j] = 0
			}
		}
		for o := 0; o < m.Cfg.H1; o++ {
			g := d1[o]
			if g == 0 {
				continue
			}
			g1b[o] += g
			for j, xv := range x {
				g1w[o*m.Cfg.In+j] += g * xv
			}
		}
		m.Stats.BackwardMACs += int64(m.Cfg.H1) * int64(m.Cfg.In)
	}
	scale := 1 / float64(len(batch))
	m.update(m.l1, g1w, g1b, scale)
	m.update(m.l2, g2w, g2b, scale)
	m.update(m.l3, g3w, g3b, scale)
	return loss
}

func (m *MLP) update(l *layer, gw, gb []float64, scale float64) {
	lr, mom := m.Cfg.LR, m.Cfg.Momentum
	for i := range l.w {
		l.vw[i] = mom*l.vw[i] - lr*gw[i]*scale
		l.w[i] += l.vw[i]
	}
	for i := range l.b {
		l.vb[i] = mom*l.vb[i] - lr*gb[i]*scale
		l.b[i] += l.vb[i]
	}
	m.Stats.Updates += int64(len(l.w) + len(l.b))
}

// Accuracy returns the fraction of correctly classified samples.
func (m *MLP) Accuracy(xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if m.Predict(x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// Layers exposes the three weight matrices (with biases appended) for
// quantisation and fault injection. The returned slices alias the model.
func (m *MLP) Layers() [][]float64 {
	return [][]float64{m.l1.w, m.l1.b, m.l2.w, m.l2.b, m.l3.w, m.l3.b}
}
