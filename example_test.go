package hdface_test

import (
	"fmt"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/hv"
)

// ExampleNew shows the minimal train-and-predict loop on a synthetic
// face/no-face problem.
func ExampleNew() {
	r := hv.NewRNG(7)
	var imgs []*hdface.Image
	var labels []int
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			imgs = append(imgs, dataset.RenderFace(32, 32, dataset.Happy, r))
			labels = append(labels, 1)
		} else {
			imgs = append(imgs, dataset.RenderNonFace(32, 32, r))
			labels = append(labels, 0)
		}
	}
	p := hdface.New(hdface.Config{D: 1024, Seed: 1, Workers: 1})
	if err := p.Fit(imgs, labels, 2); err != nil {
		fmt.Println("fit failed:", err)
		return
	}
	fmt.Println("prediction for a fresh face:", p.Predict(dataset.RenderFace(32, 32, dataset.Sad, r)))
	// Output:
	// prediction for a fresh face: 1
}

// ExampleMode lists the feature front-ends and their paper names.
func ExampleMode() {
	for _, m := range []hdface.Mode{hdface.ModeStochHOG, hdface.ModeOrigHOG} {
		fmt.Println(m)
	}
	// Output:
	// HDFace+HoG+Learn
	// HDFace+Learn
}

// ExampleConfig shows how defaults are filled.
func ExampleConfig() {
	p := hdface.New(hdface.Config{})
	cfg := p.Config()
	fmt.Println("D:", cfg.D)
	fmt.Println("stride:", cfg.Stride)
	// Output:
	// D: 4096
	// stride: 1
}
