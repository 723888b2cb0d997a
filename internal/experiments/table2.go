package experiments

import (
	"fmt"
	"io"

	"hdface"
	"hdface/internal/encoder"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/nn"
	"hdface/internal/noise"
)

// Table2Row is the quality loss (clean accuracy minus noisy accuracy) of
// one configuration across the bit-error sweep.
type Table2Row struct {
	Name   string
	Losses []float64 // aligned with Options.ErrRates
}

// table2Dims are the hypervector dimensionalities of the paper's Table 2.
func table2Dims(o Options) []int {
	if o.Quick {
		return []int{1024, 4096}
	}
	return []int{1024, 4096, 10240}
}

// Table2Data reproduces the robustness study on the EMOTION dataset:
// random bit errors hit DNN weights (at 16/8/4-bit precision), the fully
// hyperdimensional pipeline (features + model bits), and the original-space
// HOG pipeline (float feature words).
func Table2Data(o Options) ([]Table2Row, error) {
	o = o.withDefaults()
	ld := loadAll(o)[0]
	const trials = 5
	var rows []Table2Row

	// --- DNN at three precisions ---
	trainX := hogFeatures(ld.trainImgs, o.WorkingSize)
	testX := hogFeatures(ld.testImgs, o.WorkingSize)
	mlp, err := nn.New(dnnConfigFor(len(trainX[0]), ld.k, 256, o.DNNEpochs, o.Seed))
	if err != nil {
		return nil, err
	}
	if _, err := mlp.Train(trainX, ld.trainLabels); err != nil {
		return nil, err
	}
	cleanFloat := mlp.Accuracy(testX, ld.testLabels)
	for _, bits := range []int{16, 8, 4} {
		row := Table2Row{Name: fmt.Sprintf("DNN %d-bit", bits)}
		for _, rate := range o.ErrRates {
			var loss float64
			for t := 0; t < trials; t++ {
				q, err := nn.Quantize(mlp, bits)
				if err != nil {
					return nil, err
				}
				noise.New(o.Seed+uint64(t)*31+uint64(rate*1000)).FlipQuantized(q, rate)
				loss += cleanFloat - q.Accuracy(testX, ld.testLabels)
			}
			row.Losses = append(row.Losses, loss/trials)
		}
		rows = append(rows, row)
	}

	// --- HDFace, fully hyperdimensional (features + model bits) ---
	for _, d := range table2Dims(o) {
		p := pipeline(o, hdface.ModeStochHOG, d)
		if err := p.Fit(ld.trainImgs, ld.trainLabels, ld.k); err != nil {
			return nil, err
		}
		testFeats := p.Features(ld.testImgs)
		model := p.Model()
		clean := binAccuracy(model, testFeats, ld.testLabels)
		row := Table2Row{Name: fmt.Sprintf("HDFace+HoG+Learn D=%dk", d/1024)}
		for _, rate := range o.ErrRates {
			var loss float64
			for t := 0; t < trials; t++ {
				inj := noise.New(o.Seed + uint64(t)*17 + uint64(rate*1000))
				noisyFeats := cloneAll(testFeats)
				inj.FlipVectors(noisyFeats, rate)
				noisyModel := cloneModelBin(model)
				inj.FlipVectors(noisyModel.Bin, rate)
				loss += clean - binAccuracy(noisyModel, noisyFeats, ld.testLabels)
			}
			row.Losses = append(row.Losses, loss/trials)
		}
		rows = append(rows, row)
	}

	// --- HDFace with HOG on the original representation: bit errors hit
	// the fixed-point feature memory before encoding ---
	for _, d := range table2Dims(o) {
		enc := encoder.NewProjection(d, len(trainX[0]), o.Seed^0x0e5)
		trainFeats := encodeAll(enc, trainX)
		model, err := hdc.Train(trainFeats, ld.trainLabels, ld.k, hdc.TrainOpts{Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		model.Finalize(o.Seed)
		cleanTest := encodeAll(enc, testX)
		clean := binAccuracy(model, cleanTest, ld.testLabels)
		row := Table2Row{Name: fmt.Sprintf("HDFace+Learn D=%dk", d/1024)}
		for _, rate := range o.ErrRates {
			var loss float64
			for t := 0; t < trials; t++ {
				inj := noise.New(o.Seed + uint64(t)*13 + uint64(rate*1000))
				noisy := encodeAll(enc, corruptedHOG(inj, ld.testImgs, o.WorkingSize, rate))
				loss += clean - binAccuracy(model, noisy, ld.testLabels)
			}
			row.Losses = append(row.Losses, loss/trials)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// corruptedHOG models bit errors on the original-representation feature
// extraction path: flips hit both the pixel memory HOG reads and the
// fixed-point feature memory it writes. (The hyperspace pipeline's
// counterpart is bit flips directly on its hypervectors.)
func corruptedHOG(inj *noise.Injector, imgs []*imgproc.Image, workingSize int, rate float64) [][]float64 {
	noisyImgs := make([]*imgproc.Image, len(imgs))
	for i, img := range imgs {
		c := img.Clone()
		inj.FlipImagePixels(c.Pix, rate)
		noisyImgs[i] = c
	}
	out := hogFeatures(noisyImgs, workingSize)
	for _, row := range out {
		inj.FlipFixed8(row, 0, 1, rate)
	}
	return out
}

func cloneAll(vs []*hv.Vector) []*hv.Vector {
	out := make([]*hv.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

func cloneModelBin(m *hdc.Model) *hdc.Model {
	c := &hdc.Model{D: m.D, K: m.K, Classes: m.Classes}
	c.Bin = cloneAll(m.Bin)
	return c
}

func encodeAll(enc *encoder.Projection, xs [][]float64) []*hv.Vector {
	out := make([]*hv.Vector, len(xs))
	for i, x := range xs {
		out[i] = enc.Encode(x)
	}
	return out
}

func binAccuracy(m *hdc.Model, feats []*hv.Vector, labels []int) float64 {
	correct := 0
	for i, f := range feats {
		if m.PredictBinary(f) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(feats))
}

// Table2 prints the robustness table: quality loss per error rate.
func Table2(w io.Writer, o Options) error {
	o = o.withDefaults()
	rows, err := Table2Data(o)
	if err != nil {
		return err
	}
	section(w, "Table 2: quality loss under random bit error (EMOTION)")
	fmt.Fprintf(w, "%-24s", "error rate")
	for _, r := range o.ErrRates {
		fmt.Fprintf(w, "%8.0f%%", r*100)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-24s", row.Name)
		for _, l := range row.Losses {
			fmt.Fprintf(w, "%8.1f%%", l*100)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "paper: at 12%% error, DNN 16-bit loses 23.4%%; HDFace+HoG+Learn D=4k loses 1.8%%;\n")
	fmt.Fprintf(w, "running HOG on the original representation forfeits the robustness advantage\n")
	return nil
}
