// -diff support: restrict *reporting* to the files changed relative to a
// git ref while keeping the whole-module analysis (cross-package rules —
// the determflow taint propagation, hotpathalloc chains — need every
// package loaded to be sound; only the final report is narrowed).
package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"

	"dophy/internal/lint"
)

// changedFiles returns the set of root-relative slash-separated paths that
// differ from ref — tracked changes via git diff plus untracked files (a
// brand-new file has diagnostics worth seeing even before its first add).
func changedFiles(root, ref string) (map[string]bool, error) {
	files := map[string]bool{}
	tracked, err := gitLines(root, "diff", "--name-only", "-z", ref, "--")
	if err != nil {
		return nil, err
	}
	untracked, err := gitLines(root, "ls-files", "--others", "--exclude-standard", "-z")
	if err != nil {
		return nil, err
	}
	for _, f := range tracked {
		files[f] = true
	}
	for _, f := range untracked {
		files[f] = true
	}
	return files, nil
}

// gitLines runs one git subcommand in root and splits its NUL-separated
// output (-z mode: immune to quoting and unusual filenames).
func gitLines(root string, args ...string) ([]string, error) {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("git %s: %s", args[0], strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("git %s: %v", args[0], err)
	}
	var lines []string
	for _, b := range bytes.Split(out, []byte{0}) {
		if len(b) > 0 {
			lines = append(lines, string(b))
		}
	}
	return lines, nil
}

// filterToFiles keeps the diagnostics whose file, made root-relative and
// slash-separated, is in files. Diagnostics outside the root (or with no
// relative form) cannot be in a diff of the root and are dropped. The input
// slice is reused in place.
func filterToFiles(diags []lint.Diagnostic, root string, files map[string]bool) []lint.Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		if files[filepath.ToSlash(rel)] {
			kept = append(kept, d)
		}
	}
	return kept
}
