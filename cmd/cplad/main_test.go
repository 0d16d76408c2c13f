package main

import "testing"

func TestSplitList(t *testing.T) {
	got := splitList(" a:1, ,b:2,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("splitList: %v", got)
	}
	if out := splitList(""); out != nil {
		t.Fatalf("empty list: %v", out)
	}
}
