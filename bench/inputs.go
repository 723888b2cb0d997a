package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"hdface/internal/dataset"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
)

// Workload input sizes.
const (
	poolScenes    = 32  // distinct /detect scenes
	sceneW        = 384 // detect scene geometry
	sceneH        = 288
	clipFrames    = 20 // frames per /stream clip
	clipVariants  = 4  // clips per scenario: per-clip clutter sets the frame cost
	clipW, clipH  = 192, 144
	tenantCount   = 64
	zipfExponent  = 1.0
	predictRate   = 100.0 // req/s of the predict open loop
	mixedRate     = 8.0   // ops/s of the mixed lane A open loop
	feedbackEvery = 5     // every fifth mixed lane A op is a feedback
	// tenantBatch is the feedback count that starts a tenant refinement
	// round; at 1.6 feedbacks/s over Zipf-drawn tenants, the daemon's
	// default of 16 would run no round in a measured window.
	tenantBatch = 4
)

// Stream scenarios, in the order clips are cycled.
var scenarioNames = []string{"clean", "entryexit", "crossing", "jitter"}

// crop is one /predict input: a 48x48 face or non-face with its truth label.
type crop struct {
	PGM   []byte
	Label int // 1 face, 0 non-face
}

// scene is one /detect input with its ground-truth face boxes.
type scene struct {
	PGM   []byte
	Img   *imgproc.Image
	Truth [][4]int
}

// clip is one /stream input: frames and per-frame truth boxes.
type clip struct {
	Name   string
	Frames [][]byte
	Images []*imgproc.Image
	Truth  [][][4]int
}

// mixedOp is one lane A operation of the mixed workload. A feedback op
// corrects the predict op Ref (an earlier op of the same lane) with that
// crop's true label.
type mixedOp struct {
	Due      time.Duration
	Tenant   string
	Feedback bool
	Crop     int // predict: index into the crop pool
	Ref      int // feedback: index of the corrected predict op
}

func encodePGM(img *imgproc.Image) []byte {
	var b bytes.Buffer
	if err := img.WritePGM(&b); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}

// subSeed derives an independent stream for one input family.
func subSeed(seed uint64, family uint64) uint64 { return hv.Mix64(seed, family) }

// makeCrops renders n distinct crops, alternating faces (blended over
// clutter with the training jitter) and clutter windows.
func makeCrops(seed uint64, n int) []crop {
	r := hv.NewRNG(subSeed(seed, 0xc409))
	out := make([]crop, n)
	for i := range out {
		if i%2 == 0 {
			face := dataset.RenderFace(win, win, dataset.Emotion(r.Intn(int(dataset.NumEmotions))), r)
			canvas := dataset.RenderNonFace(2*win, 2*win, r)
			canvas.Blend(face, win/2+r.Intn(9)-4, win/2+r.Intn(9)-4, 1)
			out[i] = crop{encodePGM(canvas.Crop(win/2, win/2, win, win)), 1}
		} else {
			bg := dataset.RenderNonFace(2*win, 2*win, r)
			out[i] = crop{encodePGM(bg.Crop(r.Intn(win), r.Intn(win), win, win)), 0}
		}
	}
	return out
}

// makeScenes renders the /detect pool: scenes with 0-4 faces each.
func makeScenes(seed uint64, n int) []scene {
	out := make([]scene, n)
	for i := range out {
		sc := dataset.GenerateScene(sceneW, sceneH, win, i%5, hv.Mix64(subSeed(seed, 0x5ce7), uint64(i)))
		out[i] = scene{PGM: encodePGM(sc.Image), Img: sc.Image, Truth: sc.Faces}
	}
	return out
}

// makeClips renders variants clips per stream scenario, scenarios
// interleaved. A clip's background clutter persists through it and sets
// how many boxes each frame tracks and describes, so averaging over several
// backgrounds keeps the frame cost steady from seed to seed.
func makeClips(seed uint64, frames, variants int) []clip {
	out := make([]clip, variants*len(scenarioNames))
	for i := range out {
		name := scenarioNames[i%len(scenarioNames)]
		spec := dataset.ScenarioSpec{W: clipW, H: clipH, Frames: frames, Subjects: 2,
			Seed: hv.Mix64(subSeed(seed, 0xc11b), uint64(i))}
		switch name {
		case "clean":
			spec.PlainBG = true
		case "entryexit":
			spec.EntryExit = true
		case "crossing":
			spec.Crossing = true
		case "jitter":
			spec.Jitter = 3
		}
		c := clip{Name: fmt.Sprintf("%s-%d", name, i/len(scenarioNames))}
		for _, fr := range dataset.GenerateScenario(spec) {
			c.Frames = append(c.Frames, encodePGM(fr.Image))
			c.Images = append(c.Images, fr.Image)
			c.Truth = append(c.Truth, fr.Boxes)
		}
		out[i] = c
	}
	return out
}

// poissonSchedule returns the due times of a Poisson arrival process at
// rate per second over d.
func poissonSchedule(r *hv.RNG, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// spacedSchedule returns due times over d whose gaps are drawn uniformly
// from 0.75 to 1.25 times 1/rate: an open loop that never sends two
// requests closer than a frame apart, so each predict shows the frame it
// waits behind rather than a pile-up behind its own lane's previous
// request, while the jitter keeps arrivals from locking onto the frame
// period.
func spacedSchedule(r *hv.RNG, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += (0.75 + 0.5*r.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// zipfSampler draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
func zipfSampler(n int, s float64) func(r *hv.RNG) int {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	return func(r *hv.RNG) int {
		u := r.Float64() * sum
		for k, c := range cdf {
			if u < c {
				return k
			}
		}
		return n - 1
	}
}

func tenantID(k int) string { return fmt.Sprintf("t%02d", k) }

// mixedSchedule builds lane A of the mixed workload: spaced arrivals,
// tenants drawn Zipf-wise, and every feedbackEvery-th op a feedback
// correcting the predict just before it. Op i of a predict uses crop i of
// the crop pool. Arrival times and op choices come from separate streams,
// so the schedule for a longer duration extends the one for a shorter one.
func mixedSchedule(seed uint64, d time.Duration) []mixedOp {
	due := spacedSchedule(hv.NewRNG(subSeed(seed, 0x313d)), mixedRate, d)
	r := hv.NewRNG(subSeed(seed, 0x313e))
	zipf := zipfSampler(tenantCount, zipfExponent)
	ops := make([]mixedOp, len(due))
	lastPredict := -1
	for i := range ops {
		if i%feedbackEvery == feedbackEvery-1 {
			ops[i] = mixedOp{Due: due[i], Tenant: ops[lastPredict].Tenant, Feedback: true, Ref: lastPredict}
			continue
		}
		ops[i] = mixedOp{Due: due[i], Tenant: tenantID(zipf(r)), Crop: i}
		lastPredict = i
	}
	return ops
}
