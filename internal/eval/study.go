package eval

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/userstudy"
)

// UserStudyResult carries the Section V-E reproduction: per-session
// averages plus the headline deltas the paper reports.
type UserStudyResult struct {
	Sessions []userstudy.SessionStats
	// KeywordReduction: 1 − (last-session keyword use / first-session).
	KeywordReduction float64
	// TimeReduction: 1 − (last-session time / first-session time).
	TimeReduction float64
	// MeanSatisfaction across all sessions (paper: ~2.5 on 0–3).
	MeanSatisfaction float64
}

// UserStudy builds the full faceted interface from an All×All pipeline
// run and simulates the five-user study over it.
func UserStudy(dr *DataRun, topK int, seed uint64) (*UserStudyResult, error) {
	if topK == 0 {
		topK = 150
	}
	result := dr.RunCell(ExtAll, ResAll, topK)
	forest, err := BuildForest(dr, result, topK)
	if err != nil {
		return nil, err
	}
	docTerms := core.AssignDocTerms(dr.DS.Corpus, result.Context, result.Corroborated, result.FacetTermStrings())
	iface, err := browse.Build(dr.DS.Corpus, forest, docTerms)
	if err != nil {
		return nil, err
	}
	// The paper ran 5 users; the simulation uses 25 so that per-session
	// averages reflect the behavioural model rather than draw noise (a
	// 5-user run shows the same trends with wide error bars).
	sessions, err := userstudy.Run(iface, dr.DS, userstudy.Config{Seed: seed, Users: 25})
	if err != nil {
		return nil, err
	}
	res := &UserStudyResult{Sessions: sessions}
	first, last := sessions[0], sessions[len(sessions)-1]
	if first.KeywordQueries > 0 {
		res.KeywordReduction = 1 - last.KeywordQueries/first.KeywordQueries
	}
	if first.Time > 0 {
		res.TimeReduction = 1 - float64(last.Time)/float64(first.Time)
	}
	var sat float64
	for _, s := range sessions {
		sat += s.Satisfaction
	}
	res.MeanSatisfaction = sat / float64(len(sessions))
	return res, nil
}

// Format renders the study result.
func (r *UserStudyResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Session   Keyword   FacetClicks   Time       Satisfaction   Success\n")
	for _, s := range r.Sessions {
		fmt.Fprintf(&sb, "%7d   %7.2f   %11.2f   %-9v  %12.2f   %7.2f\n",
			s.Session, s.KeywordQueries, s.FacetClicks, s.Time.Round(time.Second), s.Satisfaction, s.SuccessRate)
	}
	fmt.Fprintf(&sb, "\nKeyword-use reduction (first→last session): %.0f%%\n", r.KeywordReduction*100)
	fmt.Fprintf(&sb, "Task-time reduction (first→last session):   %.0f%%\n", r.TimeReduction*100)
	fmt.Fprintf(&sb, "Mean satisfaction (0-3):                    %.2f\n", r.MeanSatisfaction)
	return sb.String()
}
