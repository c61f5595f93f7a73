package main

import (
	"errors"
	"testing"

	"rtlrepair/internal/core"
)

func TestAttemptState(t *testing.T) {
	for _, tc := range []struct {
		tr   core.TemplateResult
		want string
	}{
		{core.TemplateResult{}, "no repair"},
		{core.TemplateResult{Found: true, Changes: 2}, "2 changes"},
		{core.TemplateResult{Err: core.ErrCancelled, State: core.AttemptCancelled}, core.ErrCancelled.Error()},
		{core.TemplateResult{Err: core.ErrSameSites, State: core.AttemptSkipped}, "same sites as pruned pass"},
		{core.TemplateResult{Err: errors.New("boom")}, "boom"},
	} {
		if got := attemptState(tc.tr); got != tc.want {
			t.Errorf("attemptState(%+v) = %q, want %q", tc.tr, got, tc.want)
		}
	}
}
