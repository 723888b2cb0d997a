package track

import "testing"

func TestIoUHelper(t *testing.T) {
	a := [4]int{0, 0, 10, 10}
	if iou(a, a) != 1 {
		t.Fatal("self iou != 1")
	}
	if iou(a, [4]int{20, 20, 30, 30}) != 0 {
		t.Fatal("disjoint iou != 0")
	}
	if got := iou(a, [4]int{5, 0, 15, 10}); got < 0.3 || got > 0.35 {
		t.Fatalf("half-overlap iou %v", got)
	}
}

func TestIDF1PerfectAndSwapped(t *testing.T) {
	truth := GroundTruth{
		[][4]int{boxAt(0, 0), boxAt(100, 0)},
		[][4]int{boxAt(8, 0), boxAt(92, 0)},
		[][4]int{boxAt(16, 0), boxAt(84, 0)},
	}
	// Perfect: one ID per subject, every frame covered.
	var perfect []Obs
	for f, subjects := range truth {
		for s, b := range subjects {
			perfect = append(perfect, Obs{ID: s, Frame: f, Box: b})
		}
	}
	if rep := IDF1(perfect, truth, 0.5); rep.F1() != 1 {
		t.Fatalf("perfect tracking scored %+v", rep)
	}
	// Identity swap at frame 2: IDs trade subjects, so two observations and
	// two ground-truth appearances fall outside the global assignment.
	swapped := append([]Obs(nil), perfect[:4]...)
	swapped = append(swapped,
		Obs{ID: 1, Frame: 2, Box: truth[2][0]},
		Obs{ID: 0, Frame: 2, Box: truth[2][1]})
	rep := IDF1(swapped, truth, 0.5)
	if rep.IDTP != 4 || rep.IDFP != 2 || rep.IDFN != 2 {
		t.Fatalf("swap scored %+v", rep)
	}
	if f1 := rep.F1(); f1 <= 0.6 || f1 >= 0.7 {
		t.Fatalf("swap F1 %v, want 2/3", f1)
	}
}

func TestIDF1FragmentationAndFalseTracks(t *testing.T) {
	truth := GroundTruth{
		[][4]int{boxAt(0, 0)},
		[][4]int{boxAt(0, 0)},
		[][4]int{{}}, // subject absent
	}
	obs := []Obs{
		{ID: 0, Frame: 0, Box: boxAt(0, 0)},
		{ID: 1, Frame: 1, Box: boxAt(0, 0)},   // fragmented: new ID, only one can count
		{ID: 2, Frame: 2, Box: boxAt(200, 0)}, // pure false track
	}
	rep := IDF1(obs, truth, 0.5)
	if rep.IDTP != 1 || rep.IDFP != 2 || rep.IDFN != 1 {
		t.Fatalf("scored %+v", rep)
	}
}
