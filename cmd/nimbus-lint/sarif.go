package main

import (
	"encoding/json"
	"io"
	"path/filepath"

	"nimbus/internal/analysis"
)

// SARIF 2.1.0 output lets CI and code-hosting UIs render findings inline
// on the diff instead of making reviewers read build logs. Only the
// subset of the schema we populate is modelled; the full spec is
// https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// writeSARIF renders the findings as one SARIF run. File URIs are
// relative to the module root under %SRCROOT%, which is what upload
// actions expect for annotating checkouts, and stay stable no matter
// which directory the tool runs from.
func writeSARIF(w io.Writer, rules []analysis.Rule, diags []analysis.Diagnostic, root string) error {
	rel := func(file string) string {
		if r, err := filepath.Rel(root, file); err == nil {
			file = r
		}
		return filepath.ToSlash(file)
	}
	driver := sarifDriver{Name: "nimbus-lint"}
	index := make(map[string]int, len(rules))
	for _, r := range rules {
		index[r.Name()] = len(driver.Rules)
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               r.Name(),
			ShortDescription: sarifMessage{Text: r.Doc()},
		})
	}
	results := []sarifResult{}
	for _, d := range diags {
		idx, ok := index[d.Rule]
		if !ok {
			// Findings from the framework itself (e.g. the lint-ignore
			// malformed-directive rule) have no registered Rule; give them
			// a driver entry on first sight so ruleIndex stays valid.
			idx = len(driver.Rules)
			index[d.Rule] = idx
			driver.Rules = append(driver.Rules, sarifRule{
				ID:               d.Rule,
				ShortDescription: sarifMessage{Text: "framework diagnostic"},
			})
		}
		results = append(results, sarifResult{
			RuleID:    d.Rule,
			RuleIndex: idx,
			Level:     "warning",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: rel(d.File), URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
