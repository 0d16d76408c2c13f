package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/ispd08"
)

func TestFlowScriptSeeded(t *testing.T) {
	a, b := flowScript(3, 5, 4), flowScript(3, 5, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different flow scripts")
	}
	if reflect.DeepEqual(a, flowScript(4, 5, 4)) {
		t.Error("different seeds gave the same flow script")
	}
	for c, order := range a {
		seen := map[int]bool{}
		for _, d := range order {
			seen[d] = true
		}
		if len(order) != 5 || len(seen) != 5 {
			t.Errorf("cycle %d is not a permutation of the designs: %v", c, order)
		}
	}
}

func TestECOScriptSeeded(t *testing.T) {
	p := ecoShape
	inputs := func() ecoInputs {
		d, err := ispd08.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		in, _, err := ecoDesignInputs(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	in := inputs()
	if !reflect.DeepEqual(in, inputs()) {
		t.Fatal("script inputs differ between two preparations of the same design")
	}
	n := 2 * len(ecoCycle)
	a, b := ecoScript(5, in, n), ecoScript(5, in, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different ECO scripts")
	}
	if reflect.DeepEqual(a, ecoScript(6, in, n)) {
		t.Error("different seeds gave the same ECO script")
	}
	if len(a) != n+1 || a[0].SetCritical == nil || !reflect.DeepEqual(a[0].SetCritical.Nets, in.Critical) {
		t.Fatalf("script must start by pinning the critical set, then hold %d deltas", n)
	}
	shrunk := map[[4]int]int{}
	derated := map[int]int{}
	for i, d := range a[1:] {
		if got, want := d.Kind(), ecoCycle[i%len(ecoCycle)]; got != want {
			t.Fatalf("delta %d is %s, want %s", i, got, want)
		}
		if c := d.AdjustCapacity; c != nil {
			shrunk[[4]int{c.MinX, c.MinY, c.MaxX, c.MaxY}] += map[bool]int{true: 1, false: -1}[c.Factor < 1]
		}
		if p := d.DeratePitch; p != nil {
			derated[p.Layer] += map[bool]int{true: 1, false: -1}[p.Factor < 1]
		}
	}
	for r, v := range shrunk {
		if v != 0 {
			t.Errorf("rectangle %v shrunk %d more times than restored", r, v)
		}
	}
	for l, v := range derated {
		if v != 0 {
			t.Errorf("layer %d derated %d more times than restored", l, v)
		}
	}
}
