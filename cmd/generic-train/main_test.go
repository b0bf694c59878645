package main

import (
	"strings"
	"testing"
)

// TestRejectsBadTrainingFlags checks that a negative epoch count and a
// bit-width outside [0, 16] fail before any data loads: the dataset name is
// unknown, so reaching the load would fail with another error.
func TestRejectsBadTrainingFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-epochs", "-3"}, "-epochs -3 must not be negative"},
		{[]string{"-bw", "20"}, "-bw 20 out of range"},
		{[]string{"-bw", "-1"}, "-bw -1 out of range"},
	} {
		args := append([]string{"-dataset", "NOSUCH", "-seed", "1"}, tc.args...)
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", args, err, tc.want)
		}
	}
}
