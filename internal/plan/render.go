package plan

import (
	"fmt"
	"strings"
	"time"
)

// Render returns the plan as an indented node tree, one line per node, with
// the analytical model's per-node prediction and — after a Run with
// observation enabled — the observed per-node counters side by side. This
// is the payload of DB.Explain: when the model's ranking disagrees with
// reality, the node whose modeled and observed columns diverge is the
// culprit.
func (p *Plan) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s plan\n", p.Label)
	p.renderNode(&b, p.Root, "", "", "")
	return b.String()
}

func (p *Plan) renderNode(b *strings.Builder, n *Node, selfPrefix, childPrefix, branch string) {
	line := selfPrefix + branch + n.label()
	pad := 46
	if len(line)+2 > pad {
		pad = len(line) + 2
	}
	fmt.Fprintf(b, "%-*s%s\n", pad, line, p.annotations(n))
	for i, c := range n.Children {
		last := i == len(n.Children)-1
		cb, cp := "├─ ", "│  "
		if last {
			cb, cp = "└─ ", "   "
		}
		p.renderNode(b, c, childPrefix, childPrefix+cp, cb)
	}
}

// annotations renders the modeled and observed columns for one node.
func (p *Plan) annotations(n *Node) string {
	var parts []string
	if n.HasModel {
		parts = append(parts, fmt.Sprintf("model: cpu=%.0fµs io=%.0fµs", n.Modeled.CPU, n.Modeled.IO))
	}
	if p.observed {
		obs := fmt.Sprintf("obs: rows=%d", n.Obs.Rows.Load())
		if ns := n.Obs.Nanos.Load(); ns > 0 {
			obs += fmt.Sprintf(" time=%v", time.Duration(ns).Round(time.Microsecond))
		}
		if ch := n.Obs.Chunks.Load(); ch > 0 {
			obs += fmt.Sprintf(" chunks=%d", ch)
		}
		if n.Kind == KindJoinBuild && n.built != nil {
			obs += fmt.Sprintf(" partitions=%d build_workers=%d", n.built.Partitions, n.built.BuildWorkers)
			if n.built.SpilledParts > 0 {
				obs += fmt.Sprintf(" spilled=%d/%d rescan_bytes=%d",
					n.built.SpilledParts, n.built.Partitions, n.built.SpillBytes)
			}
		}
		parts = append(parts, obs)
	}
	if len(parts) == 0 {
		return ""
	}
	return "[" + strings.Join(parts, " | ") + "]"
}

// Shape returns the rendered tree without annotations — the stable golden
// form plan-builder tests pin.
func (p *Plan) Shape() string {
	saved := p.observed
	p.observed = false
	var b strings.Builder
	fmt.Fprintf(&b, "%s plan\n", p.Label)
	shapeNode(&b, p.Root, "", "")
	p.observed = saved
	return b.String()
}

func shapeNode(b *strings.Builder, n *Node, childPrefix, branch string) {
	b.WriteString(strings.TrimRight(branch+n.label(), " ") + "\n")
	for i, c := range n.Children {
		last := i == len(n.Children)-1
		cb, cp := childPrefix+"├─ ", childPrefix+"│  "
		if last {
			cb, cp = childPrefix+"└─ ", childPrefix+"   "
		}
		shapeNode(b, c, cp, cb)
	}
}
