//! Figure-8 heatmap rendering from a **saved** campaign matrix.
//!
//! The paper's Figure 8 asks one question per hardening mechanism: *which
//! attacks still leak, and what does the mechanism cost?* A
//! [`Figure8View`] answers it from a [`CampaignMatrix`] alone — typically
//! one loaded with `CampaignMatrix::load_json` — so regenerating the
//! heatmap after a campaign (or after assembling its shards) re-simulates
//! **zero** cells.
//!
//! Three renderings, all deterministic functions of the matrix:
//!
//! * [`Figure8View::to_csv`] — one row per (defense × config) with leak
//!   counts/rates and simulated counts, plus per-config mean baseline
//!   cycles and overhead on the undefended row;
//! * [`Figure8View::to_ascii`] — a terminal heatmap (glyph + percent per
//!   cell);
//! * [`Figure8View::to_svg`] — a standalone SVG heatmap (sequential
//!   single-hue fill, direct per-cell labels, native `<title>` tooltips).
//!
//! Rows are the defense axis with an `(undefended)` row first (from the
//! matrix's baseline runs); columns are the config slices — for a
//! Figure-8 campaign, the knob grid of hardened machines.
//!
//! A cell's leak rate is over the attacks the machine actually ran:
//! graph-only cells (a defense with no hardware model) and degraded ones
//! (quarantined or timed out) are neither leaked nor blocked. A cell with
//! no simulated attack has no rate, and every rendering shows it as "no
//! data" rather than as a blocked `0%`.

use specgraph::campaign::{csv_field, CampaignMatrix};
use specgraph::defenses::Verdict;
use std::fmt::Write as _;

/// The leak-rate row for one defense (or for the undefended baselines).
#[derive(Debug, Clone)]
pub struct HeatRow {
    /// Defense name, or `"(undefended)"` for the baseline row.
    pub defense: String,
    /// Per config slice: attacks that leaked under this defense.
    pub leaked: Vec<usize>,
    /// Per config slice: attacks with a machine verdict (the leak-rate
    /// denominator); graph-only and degraded cells are not counted.
    pub simulated: Vec<usize>,
}

/// A Figure-8 heatmap: leak rate per defense × config slice, with
/// per-config overhead from the undefended baseline cycles.
#[derive(Debug, Clone)]
pub struct Figure8View {
    /// Config-slice names (heatmap columns), in matrix order.
    pub configs: Vec<String>,
    /// Attacks evaluated per cell, simulated or not.
    pub attacks: usize,
    /// Mean undefended cycles per config slice.
    pub mean_cycles: Vec<f64>,
    /// Mean undefended cycles relative to the first config slice.
    pub overhead: Vec<f64>,
    /// `(undefended)` first, then one row per defense, in matrix order.
    pub rows: Vec<HeatRow>,
}

impl HeatRow {
    fn new(defense: &str, configs: usize) -> Self {
        HeatRow {
            defense: defense.to_owned(),
            leaked: vec![0; configs],
            simulated: vec![0; configs],
        }
    }

    /// Counts one simulated attack on config slice `config`.
    fn count(&mut self, config: usize, leaked: bool) {
        self.simulated[config] += 1;
        self.leaked[config] += usize::from(leaked);
    }
}

impl Figure8View {
    /// Builds the view from a matrix — a pure summarization; nothing is
    /// re-simulated.
    #[must_use]
    pub fn from_matrix(m: &CampaignMatrix) -> Self {
        let (a, _, c) = m.shape();
        let mut cycles = vec![0u64; c];
        let mut baselines = HeatRow::new("(undefended)", c);
        for b in m.baselines() {
            cycles[b.config] += b.cycles;
            if b.outcome.is_ok() {
                baselines.count(b.config, b.leaked);
            }
        }
        let mean_cycles: Vec<f64> = cycles
            .iter()
            .map(|&sum| {
                if a == 0 {
                    0.0
                } else {
                    to_f64(sum) / to_f64(a as u64)
                }
            })
            .collect();
        let overhead = mean_cycles
            .iter()
            .map(|&mc| {
                if mean_cycles.first().copied().unwrap_or(0.0) > 0.0 {
                    mc / mean_cycles[0]
                } else {
                    1.0
                }
            })
            .collect();
        let mut rows = vec![baselines];
        rows.extend(
            m.defenses
                .iter()
                .map(|defense| HeatRow::new(defense.name(), c)),
        );
        // One pass over the attack-major cell layout (((a·D)+d)·C + c):
        // row 1 + (j/C) % D is the cell's defense. Degraded cells carry
        // `GraphOnly`, so one test skips them and unmodeled defenses.
        let d = m.defenses.len();
        for (j, cell) in m.cells().iter().enumerate() {
            let mechanism = cell.evaluation.mechanism;
            if mechanism != Verdict::GraphOnly {
                rows[1 + (j / c) % d].count(cell.config, mechanism == Verdict::Leaked);
            }
        }
        Figure8View {
            configs: m.configs.clone(),
            attacks: a,
            mean_cycles,
            overhead,
            rows,
        }
    }

    /// Leak rate (`0.0..=1.0`) over the simulated attacks of one
    /// row/column cell; `None` when no attack there was simulated.
    #[must_use]
    pub fn leak_rate(&self, row: &HeatRow, config: usize) -> Option<f64> {
        let simulated = row.simulated[config];
        (simulated > 0).then(|| to_f64(row.leaked[config] as u64) / to_f64(simulated as u64))
    }

    /// The heatmap as CSV: one row per (defense, config) cell. Mean
    /// cycles and overhead come from the undefended baselines, so they
    /// are only filled on the `(undefended)` rows.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "defense,config,attacks,leaked,leak_rate,simulated,mean_cycles,overhead\n",
        );
        for row in &self.rows {
            for (j, cfg) in self.configs.iter().enumerate() {
                let (cycles, overhead) = if row.defense == "(undefended)" {
                    (
                        format!("{:.1}", self.mean_cycles[j]),
                        format!("{:.3}", self.overhead[j]),
                    )
                } else {
                    (String::new(), String::new())
                };
                let rate = self
                    .leak_rate(row, j)
                    .map_or_else(String::new, |r| format!("{r:.3}"));
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{}",
                    csv_field(&row.defense),
                    csv_field(cfg),
                    self.attacks,
                    row.leaked[j],
                    rate,
                    row.simulated[j],
                    cycles,
                    overhead,
                );
            }
        }
        out
    }

    /// The heatmap for a terminal: numbered columns (config names and
    /// overheads in a key above), one glyph + percentage per cell.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let mut out = String::from(
            "Figure 8 — hardening heatmap (per cell: fraction of simulated attacks that still leak)\n\n",
        );
        for (j, cfg) in self.configs.iter().enumerate() {
            let _ = writeln!(out, "  [c{j}] {cfg}  (overhead ×{:.2})", self.overhead[j]);
        }
        let name_w = self
            .rows
            .iter()
            .map(|r| r.defense.chars().count())
            .max()
            .unwrap_or(0)
            .max("row \\ col".len());
        let _ = write!(out, "\n  {:<name_w$}", "row \\ col");
        for j in 0..self.configs.len() {
            let _ = write!(out, " {:>6}", format!("c{j}"));
        }
        out.push('\n');
        for row in &self.rows {
            let _ = write!(out, "  {:<name_w$}", row.defense);
            for j in 0..self.configs.len() {
                let label = match self.leak_rate(row, j) {
                    Some(rate) => format!("{}{:>4.0}%", glyph(rate), rate * 100.0),
                    None => format!("{NO_DATA_GLYPH}  n/a"),
                };
                let _ = write!(out, " {label:>6}");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "\n  legend: · 0%   ░ ≤33%   ▒ ≤67%   ▓ <100%   █ 100%   \
             {NO_DATA_GLYPH} not simulated (graph-only or degraded)"
        );
        out
    }

    /// The heatmap as a standalone SVG document: sequential single-hue
    /// cell fill (light → dark blue with rising leak rate), a direct
    /// percentage label on every cell, per-config overhead under the
    /// column labels, and a native `<title>` tooltip per cell. A cell
    /// with no simulated attack is a dashed outline labelled `n/a`.
    #[must_use]
    pub fn to_svg(&self) -> String {
        const CELL_W: usize = 64;
        const CELL_H: usize = 34;
        const GAP: usize = 2; // spacer between fills
        let label_w = 16 + 7 * self.rows.iter().map(|r| r.defense.len()).max().unwrap_or(8);
        let top = 96;
        let cols = self.configs.len();
        let grid_w = cols * (CELL_W + GAP);
        // Keep room for the caption, the last rotated column label and the
        // legend row (it ends in the no-data entry) even when the grid
        // itself is narrow.
        let longest_config = self.configs.iter().map(String::len).max().unwrap_or(0);
        let width = (label_w + grid_w + 24 + 6 * longest_config)
            .max(560)
            .max(label_w + 360);
        let legend_h = 56;
        let height = top + self.rows.len() * (CELL_H + GAP) + legend_h;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
             viewBox=\"0 0 {width} {height}\" font-family=\"system-ui, sans-serif\">"
        );
        let _ = writeln!(
            s,
            "  <rect width=\"{width}\" height=\"{height}\" fill=\"{SURFACE}\"/>"
        );
        let _ = writeln!(
            s,
            "  <text x=\"16\" y=\"28\" font-size=\"15\" font-weight=\"600\" fill=\"{INK}\">\
             Figure 8 — hardening heatmap</text>"
        );
        let _ = writeln!(
            s,
            "  <text x=\"16\" y=\"46\" font-size=\"11\" fill=\"{INK_2}\">\
             cell = fraction of the simulated attack(s), of {}, that still leak; \
             columns show run-time overhead vs the first config</text>",
            self.attacks
        );
        // Column headers: angled config names plus an overhead line.
        for (j, cfg) in self.configs.iter().enumerate() {
            let x = label_w + j * (CELL_W + GAP) + CELL_W / 2;
            let _ = writeln!(
                s,
                "  <text x=\"{x}\" y=\"{y}\" font-size=\"10\" fill=\"{INK}\" \
                 text-anchor=\"start\" transform=\"rotate(-30 {x} {y})\">{}</text>",
                esc(cfg),
                y = top - 26,
            );
            let _ = writeln!(
                s,
                "  <text x=\"{x}\" y=\"{y}\" font-size=\"9\" fill=\"{INK_2}\" \
                 text-anchor=\"middle\">×{:.2}</text>",
                self.overhead[j],
                y = top - 8,
            );
        }
        for (i, row) in self.rows.iter().enumerate() {
            let y = top + i * (CELL_H + GAP);
            let _ = writeln!(
                s,
                "  <text x=\"{}\" y=\"{}\" font-size=\"11\" fill=\"{INK}\" \
                 text-anchor=\"end\">{}</text>",
                label_w - 10,
                y + CELL_H / 2 + 4,
                esc(&row.defense)
            );
            for j in 0..cols {
                let x = label_w + j * (CELL_W + GAP);
                let (title, paint, label, ink) = match self.leak_rate(row, j) {
                    Some(rate) => {
                        let (fill, dark) = sequential_fill(rate);
                        (
                            format!(
                                "{} of {} simulated attack(s) leak ({:.0}%)",
                                row.leaked[j],
                                row.simulated[j],
                                rate * 100.0
                            ),
                            format!("fill=\"{fill}\""),
                            format!("{:.0}%", rate * 100.0),
                            if dark { "#ffffff" } else { INK },
                        )
                    }
                    None => (
                        format!(
                            "none of {} attack(s) simulated (graph-only or degraded)",
                            self.attacks
                        ),
                        NO_DATA_PAINT.to_owned(),
                        "n/a".to_owned(),
                        INK_2,
                    ),
                };
                let _ = writeln!(
                    s,
                    "  <g><title>{} / {}: {title}</title>\n    \
                     <rect x=\"{x}\" y=\"{y}\" width=\"{CELL_W}\" height=\"{CELL_H}\" \
                     rx=\"3\" {paint}/>\n    \
                     <text x=\"{tx}\" y=\"{ty}\" font-size=\"11\" text-anchor=\"middle\" \
                     fill=\"{ink}\">{label}</text>\n  </g>",
                    esc(&row.defense),
                    esc(&self.configs[j]),
                    tx = x + CELL_W / 2,
                    ty = y + CELL_H / 2 + 4,
                );
            }
        }
        // Legend: the sequential ramp with end labels.
        let ly = top + self.rows.len() * (CELL_H + GAP) + 22;
        let _ = writeln!(
            s,
            "  <text x=\"{label_w}\" y=\"{}\" font-size=\"10\" fill=\"{INK_2}\">leak rate</text>",
            ly - 6
        );
        for k in 0..=10usize {
            let (fill, _) = sequential_fill(to_f64(k as u64) / 10.0);
            let _ = writeln!(
                s,
                "  <rect x=\"{}\" y=\"{ly}\" width=\"18\" height=\"10\" fill=\"{fill}\"/>",
                label_w + k * 18
            );
        }
        let _ = writeln!(
            s,
            "  <text x=\"{label_w}\" y=\"{}\" font-size=\"9\" fill=\"{INK_2}\">0%</text>",
            ly + 22
        );
        let _ = writeln!(
            s,
            "  <text x=\"{}\" y=\"{}\" font-size=\"9\" fill=\"{INK_2}\" \
             text-anchor=\"end\">100%</text>",
            label_w + 11 * 18,
            ly + 22
        );
        // Its own legend entry for cells with no machine verdict.
        let nx = label_w + 11 * 18 + 24;
        let _ = writeln!(
            s,
            "  <rect x=\"{nx}\" y=\"{ly}\" width=\"18\" height=\"10\" {NO_DATA_PAINT}/>\n  \
             <text x=\"{}\" y=\"{}\" font-size=\"9\" fill=\"{INK_2}\">\
             n/a: not simulated</text>",
            nx + 24,
            ly + 9
        );
        s.push_str("</svg>\n");
        s
    }
}

/// Chart surface (light mode).
const SURFACE: &str = "#fcfcfb";
/// Primary ink for labels; never the series color.
const INK: &str = "#0b0b0b";
/// Secondary ink for captions and de-emphasized labels.
const INK_2: &str = "#52514e";
/// A no-data cell: the bare surface inside a dashed outline, so it reads
/// as neither the `0%` gray nor any step of the leak-rate ramp.
const NO_DATA_PAINT: &str =
    "fill=\"#fcfcfb\" stroke=\"#52514e\" stroke-width=\"1\" stroke-dasharray=\"3 2\"";
/// The terminal glyph for a cell with no simulated attack.
const NO_DATA_GLYPH: char = '?';

/// Sequential single-hue ramp (blue, light → dark) for leak-rate
/// magnitude; exact zero recedes to a neutral near-surface gray. Returns
/// the fill and whether it is dark enough to need white cell labels.
fn sequential_fill(rate: f64) -> (String, bool) {
    const RAMP: [(u8, u8, u8); 7] = [
        (0xcd, 0xe2, 0xfb), // 100
        (0x9e, 0xc5, 0xf4), // 200
        (0x6d, 0xa7, 0xec), // 300
        (0x39, 0x87, 0xe5), // 400
        (0x25, 0x6a, 0xbf), // 500
        (0x18, 0x4f, 0x95), // 600
        (0x0d, 0x36, 0x6b), // 700
    ];
    if rate <= 0.0 {
        return ("#f0efec".to_owned(), false);
    }
    let t = rate.min(1.0) * (RAMP.len() - 1) as f64;
    let lo = (t.floor() as usize).min(RAMP.len() - 2);
    let frac = t - to_f64(lo as u64);
    let mix = |a: u8, b: u8| -> u8 {
        let v = f64::from(a) + (f64::from(b) - f64::from(a)) * frac;
        let clamped = v.clamp(0.0, 255.0);
        // Rounded channel mix stays in 0..=255 by the clamp above.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            clamped.round() as u8
        }
    };
    let (a, b) = (RAMP[lo], RAMP[lo + 1]);
    let rgb = (mix(a.0, b.0), mix(a.1, b.1), mix(a.2, b.2));
    (
        format!("#{:02x}{:02x}{:02x}", rgb.0, rgb.1, rgb.2),
        rate >= 0.55, // from step ~450 on, white labels clear the fill
    )
}

fn glyph(rate: f64) -> char {
    if rate <= 0.0 {
        '·'
    } else if rate <= 1.0 / 3.0 {
        '░'
    } else if rate <= 2.0 / 3.0 {
        '▒'
    } else if rate < 1.0 {
        '▓'
    } else {
        '█'
    }
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn to_f64(n: u64) -> f64 {
    // Campaign counts and cycle sums are far below 2^52; the lossless
    // range of f64.
    #[allow(clippy::cast_precision_loss)]
    {
        n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specgraph::campaign::{CampaignSpec, Hardening, Knob};
    use specgraph::prelude::*;
    use uarch::UarchConfig;

    fn tiny_fig8_matrix() -> CampaignMatrix {
        let spec = CampaignSpec::builder(UarchConfig::default())
            .attacks([
                attacks::find(attacks::names::SPECTRE_V1).unwrap(),
                attacks::find(attacks::names::MELTDOWN).unwrap(),
            ])
            .defenses([*defenses::find(defenses::names::NDA).unwrap()])
            .axis(Knob::Hardening, [Hardening::None, Hardening::Nda])
            .build();
        CampaignMatrix::run(&spec).unwrap()
    }

    #[test]
    fn view_summarizes_without_resimulating() {
        let m = tiny_fig8_matrix();
        let v = Figure8View::from_matrix(&m);
        assert_eq!(v.configs, m.configs);
        assert_eq!(v.attacks, 2);
        assert_eq!(v.rows.len(), 1 + 1); // (undefended) + NDA
        assert_eq!(v.rows[0].defense, "(undefended)");
        // Undefended baseline leaks everything; the NDA-hardened machine
        // (config 1) leaks nothing even undefended.
        assert_eq!(v.rows[0].leaked, vec![2, 0]);
        assert_eq!(v.rows[0].simulated, vec![2, 2]);
        assert_eq!(v.leak_rate(&v.rows[0], 0), Some(1.0));
        assert_eq!(v.overhead[0], 1.0);
        assert!(
            v.overhead[1] >= 1.0,
            "hardening never speeds the machine up"
        );
    }

    #[test]
    fn renderings_are_well_formed() {
        let v = Figure8View::from_matrix(&tiny_fig8_matrix());
        let csv = v.to_csv();
        assert!(csv.starts_with("defense,config,attacks,leaked,leak_rate,"));
        // Header + (2 rows × 2 configs).
        assert_eq!(csv.lines().count(), 1 + 4);
        // Overhead only on the undefended rows: exactly 2 rows end with a
        // filled overhead column.
        assert_eq!(
            csv.lines().filter(|l| !l.ends_with(",,")).count(),
            1 + 2,
            "csv: {csv}"
        );
        let ascii = v.to_ascii();
        assert!(ascii.contains("(undefended)"));
        assert!(ascii.contains("100%"));
        assert!(ascii.contains("legend"));
        let svg = v.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<title>").count(), 4);
        // ② NDA's label must be XML-escaped? No markup characters — but
        // the escaper must at least keep the document balanced.
        // bg + cells + ramp legend + no-data legend
        assert_eq!(svg.matches("<rect").count(), 1 + 4 + 11 + 1);
    }

    #[test]
    fn unsimulated_cells_render_as_no_data_not_blocked() {
        // One attack; NDA is modeled (its cell is quarantined below) and
        // coarse address masking is software-only (a graph-only row).
        let spec = CampaignSpec::builder(UarchConfig::default())
            .attacks([attacks::find(attacks::names::SPECTRE_V1).unwrap()])
            .defenses([
                *defenses::find(defenses::names::NDA).unwrap(),
                *defenses::find(defenses::names::ADDRESS_MASKING_COARSE).unwrap(),
            ])
            .build();
        let json = CampaignMatrix::run(&spec).unwrap().to_json();
        let nda_row = json
            .lines()
            .position(|l| l.contains("\"defense\": \"NDA\""))
            .unwrap();
        let json: String = json
            .lines()
            .enumerate()
            .map(|(i, line)| {
                if i != nda_row {
                    return format!("{line}\n");
                }
                let (row, close) = line.rsplit_once('}').unwrap();
                let row = row.replace(
                    "\"mechanism\": \"blocked\"",
                    "\"mechanism\": \"quarantined\"",
                );
                format!("{row}, \"quarantine_reason\": \"injected\"}}{close}\n")
            })
            .collect();
        let m = CampaignMatrix::from_json(&json).unwrap();
        assert!(!m.cells()[0].outcome.is_ok(), "the NDA cell is quarantined");
        assert_eq!(m.cells()[1].evaluation.mechanism, Verdict::GraphOnly);

        let v = Figure8View::from_matrix(&m);
        assert_eq!(v.rows[0].simulated, vec![1]);
        assert_eq!(v.leak_rate(&v.rows[0], 0), Some(1.0));
        for row in &v.rows[1..] {
            assert_eq!((row.leaked[0], row.simulated[0]), (0, 0), "{}", row.defense);
            assert_eq!(v.leak_rate(row, 0), None, "{}", row.defense);
        }
        let ascii = v.to_ascii();
        for row in ["NDA", "Address masking"] {
            let line = ascii
                .lines()
                .find(|l| l.trim_start().starts_with(row))
                .unwrap_or_else(|| panic!("no {row} row in\n{ascii}"));
            assert!(line.ends_with("?  n/a") && !line.contains('%'), "{line}");
        }
        let csv = v.to_csv();
        assert!(csv.starts_with("defense,config,attacks,leaked,leak_rate,simulated,"));
        for line in csv.lines().skip(2) {
            assert!(line.contains(",1,0,,0,"), "no-data row: {line}");
        }
        let svg = v.to_svg();
        assert_eq!(svg.matches(">n/a</text>").count(), 2);
        // Only the baseline cell carries a percentage label.
        assert_eq!(svg.matches("%</text>\n  </g>").count(), 1);
        assert!(svg.contains("n/a: not simulated"));
    }

    #[test]
    fn sequential_fill_is_monotone_and_zero_recedes() {
        assert_eq!(sequential_fill(0.0).0, "#f0efec");
        assert_eq!(sequential_fill(1.0).0, "#0d366b");
        assert!(!sequential_fill(0.2).1);
        assert!(sequential_fill(0.9).1, "dark cells need white labels");
    }
}
