// Package experiments regenerates every table and figure of the HDFace
// paper's evaluation (Section 6) on the synthetic substrate described in
// DESIGN.md. Each experiment is a function taking Options and an io.Writer;
// the cmd/hdface-bench binary dispatches to them, and EXPERIMENTS.md
// records paper-reported versus measured values.
package experiments

import (
	"fmt"
	"io"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/hog"
	"hdface/internal/imgproc"
)

// Options sizes the experiments. Zero fields take defaults tuned for a
// single-core laptop run of a few minutes; Quick cuts them roughly 3x.
type Options struct {
	Seed  uint64
	Quick bool
	// OutDir, when non-empty, receives PGM visualisations (Figure 6).
	OutDir string

	// Dataset sizes (train/test rendered per dataset).
	EmoTrain, EmoTest   int
	FaceTrain, FaceTest int
	// WorkingSize is the raster all pipelines operate on after resize.
	WorkingSize int

	// Dims is the Figure 5a dimensionality sweep.
	Dims []int
	// ErrRates is the Table 2 bit-error sweep.
	ErrRates []float64
	// Trials is the per-point sample count for Figure 2.
	Trials int
	// D is the headline dimensionality (paper: 4k).
	D int

	// DNN settings.
	DNNEpochs int
	DNNHidden []int // Figure 5b hidden-size sweep (square layers)
}

func (o Options) withDefaults() Options {
	def := func(p *int, v, quick int) {
		if *p == 0 {
			if o.Quick {
				*p = quick
			} else {
				*p = v
			}
		}
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	def(&o.EmoTrain, 140, 42)
	def(&o.EmoTest, 70, 28)
	def(&o.FaceTrain, 60, 20)
	def(&o.FaceTest, 30, 10)
	def(&o.WorkingSize, 48, 32)
	def(&o.Trials, 200, 40)
	def(&o.D, 4096, 2048)
	def(&o.DNNEpochs, 20, 6)
	if len(o.Dims) == 0 {
		if o.Quick {
			o.Dims = []int{1024, 2048, 4096}
		} else {
			o.Dims = []int{1024, 2048, 4096, 8192, 10240}
		}
	}
	if len(o.ErrRates) == 0 {
		o.ErrRates = []float64{0, 0.01, 0.02, 0.04, 0.08, 0.12, 0.14}
	}
	if len(o.DNNHidden) == 0 {
		if o.Quick {
			o.DNNHidden = []int{64, 128}
		} else {
			o.DNNHidden = []int{64, 128, 256, 512}
		}
	}
	return o
}

// loadedDataset is a generated dataset pre-split into images and labels.
type loadedDataset struct {
	spec                    dataset.Spec
	name                    string
	k                       int
	trainImgs, testImgs     []*imgproc.Image
	trainLabels, testLabels []int
}

func split(samples []dataset.Sample) ([]*imgproc.Image, []int) {
	imgs := make([]*imgproc.Image, len(samples))
	labels := make([]int, len(samples))
	for i, s := range samples {
		imgs[i] = s.Image
		labels[i] = s.Label
	}
	return imgs, labels
}

// loadAll generates the three Table 1 datasets at the configured scale. The
// large-raster datasets are rendered at their native sizes and resized by
// the pipelines' WorkingSize.
func loadAll(o Options) []*loadedDataset {
	var out []*loadedDataset
	for _, spec := range dataset.Specs() {
		trainN, testN := o.FaceTrain, o.FaceTest
		if spec.NumClasses > 2 {
			trainN, testN = o.EmoTrain, o.EmoTest
		}
		// Rendering 1024x1024 rasters only to resize them to WorkingSize
		// wastes minutes of single-core time; render at an intermediate
		// native-aspect size that still exercises the resize path.
		genSize := spec.ImageSize
		if genSize > 128 {
			genSize = 128
		}
		genSpec := spec
		genSpec.ImageSize = genSize
		ds := dataset.Generate(genSpec, trainN, testN, o.Seed^uint64(spec.ImageSize))
		ld := &loadedDataset{spec: spec, name: spec.Name, k: spec.NumClasses}
		ld.trainImgs, ld.trainLabels = split(ds.Train)
		ld.testImgs, ld.testLabels = split(ds.Test)
		out = append(out, ld)
	}
	return out
}

// hogFeatures extracts classical HOG features for the baselines, resizing
// to the working size first.
func hogFeatures(imgs []*imgproc.Image, workingSize int) [][]float64 {
	e := hog.New(hog.DefaultParams())
	out := make([][]float64, len(imgs))
	for i, img := range imgs {
		if img.W != workingSize || img.H != workingSize {
			img = img.Resize(workingSize, workingSize)
		}
		out[i] = e.Features(img)
	}
	return out
}

// pipeline builds an hdface pipeline for the experiment scale.
func pipeline(o Options, mode hdface.Mode, d int) *hdface.Pipeline {
	return hdface.New(hdface.Config{
		D:           d,
		Mode:        mode,
		WorkingSize: o.WorkingSize,
		Workers:     1, // deterministic single-core runs
		Seed:        o.Seed,
	})
}

// section prints a header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// Runner names an experiment and its entry point.
type Runner struct {
	Name string
	Desc string
	Run  func(io.Writer, Options) error
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig2", "stochastic arithmetic error vs dimensionality", Fig2},
		{"table1", "dataset inventory", Table1},
		{"fig4", "accuracy vs DNN and SVM", Fig4},
		{"fig5a", "HDFace dimensionality sweep", Fig5a},
		{"fig5b", "DNN configuration sweep", Fig5b},
		{"fig6", "sliding-window detection visualisation", Fig6},
		{"fig7", "speedup and energy on CPU and FPGA", Fig7},
		{"table2", "robustness to random bit error", Table2},
		{"motivation", "Section 2 motivation numbers", Motivation},
		{"ablations", "design-choice ablation sweep", Ablations},
		{"fewshot", "sample efficiency: accuracy vs shots per class", FewShot},
		{"dimreduce", "post-training dimensionality reduction", DimReduce},
		{"occlusion", "robustness to structured occlusion", Occlusion},
		{"dse", "FPGA lane-budget design-space exploration", DSE},
		{"streambench", "streaming tracking benchmark (BENCH_stream.json)", StreamBench},
		{"faultsweep", "bit-error chaos harness with self-repair (BENCH_fault.json)", FaultSweep},
		{"onlinebench", "online learning drift-recovery benchmark (BENCH_online.json)", OnlineBench},
		{"fleetbench", "fault-tolerant serving fleet benchmark (BENCH_fleet.json)", FleetBench},
		{"verify", "reproduction gate: assert the structural claims", Verify},
	}
}

// Get returns the runner with the given name.
func Get(name string) (Runner, bool) {
	for _, r := range All() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}
