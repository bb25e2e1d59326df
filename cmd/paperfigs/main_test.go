package main

import (
	"testing"

	"repro/internal/scenario"
)

// TestFiguresAreBuiltins: every figure paperfigs prints beyond the
// closed-form tables is a committed scenario spec that expands as
// committed, so a typo in the list fails here rather than at run time.
func TestFiguresAreBuiltins(t *testing.T) {
	for _, name := range figures {
		if closedForm[name] != nil {
			continue
		}
		spec, err := scenario.Builtin(name)
		if err != nil {
			t.Errorf("figure %q: %v", name, err)
			continue
		}
		if _, err := spec.Expand(scenario.Overrides{}); err != nil {
			t.Errorf("figure %q: %v", name, err)
		}
	}
}
