//! SVG rendering of designs and heat maps — dependency-free generators
//! for the paper's visual artifacts (Figure 4's heat maps and Figure 7's
//! EIR wiring diagram).

use crate::design::EquiNoxDesign;
use crate::heatmap::HeatMap;
use equinox_phys::Coord;
use std::fmt::Write;

/// Pixel size of one tile in the rendered grid.
const TILE: f64 = 48.0;
/// Margin around the grid.
const MARGIN: f64 = 24.0;

fn tile_center(c: Coord) -> (f64, f64) {
    (
        MARGIN + c.x as f64 * TILE + TILE / 2.0,
        MARGIN + c.y as f64 * TILE + TILE / 2.0,
    )
}

/// Colour wheel for CB groups (8 distinguishable hues).
fn group_color(i: usize) -> &'static str {
    const COLORS: [&str; 8] = [
        "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#17becf",
    ];
    COLORS[i % COLORS.len()]
}

/// Renders the EIR wiring diagram (Figure 7): the mesh grid, CBs and EIRs
/// coloured by group, and the straight RDL wires between them.
///
/// The output is a self-contained SVG document.
pub fn design_svg(design: &EquiNoxDesign) -> String {
    let n = design.placement.width;
    let size = MARGIN * 2.0 + n as f64 * TILE;
    let mut s = String::new();
    let _ = write!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">"#
    );
    let _ = write!(s, r#"<rect width="{size}" height="{size}" fill="white"/>"#);
    // Grid tiles.
    for y in 0..n {
        for x in 0..n {
            let (cx, cy) = tile_center(Coord::new(x, y));
            let _ = write!(
                s,
                r##"<rect x="{:.1}" y="{:.1}" width="{t}" height="{t}" fill="none" stroke="#ddd"/>"##,
                cx - TILE / 2.0,
                cy - TILE / 2.0,
                t = TILE
            );
        }
    }
    // RDL wires underneath the markers.
    for (i, group) in design.selection.groups.iter().enumerate() {
        let cb = design.placement.cbs[i];
        let (x1, y1) = tile_center(cb);
        for &e in group {
            let (x2, y2) = tile_center(e);
            let _ = write!(
                s,
                r#"<line x1="{x1:.1}" y1="{y1:.1}" x2="{x2:.1}" y2="{y2:.1}" stroke="{c}" stroke-width="2.5" stroke-opacity="0.75"/>"#,
                c = group_color(i)
            );
        }
    }
    // EIR markers.
    for (i, group) in design.selection.groups.iter().enumerate() {
        for &e in group {
            let (cx, cy) = tile_center(e);
            let _ = write!(
                s,
                r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="9" fill="{c}" fill-opacity="0.85"/>"#,
                c = group_color(i)
            );
        }
    }
    // CB markers on top.
    for (i, &cb) in design.placement.cbs.iter().enumerate() {
        let (cx, cy) = tile_center(cb);
        let _ = write!(
            s,
            r#"<rect x="{:.1}" y="{:.1}" width="22" height="22" fill="{c}" stroke="black"/><text x="{cx:.1}" y="{:.1}" font-size="11" text-anchor="middle" fill="white">C{i}</text>"#,
            cx - 11.0,
            cy - 11.0,
            cy + 4.0,
            c = group_color(i)
        );
    }
    s.push_str("</svg>");
    s
}

/// Renders a heat map (Figure 4) as an SVG grid shaded by per-router
/// average traversal cycles, with CB tiles outlined.
pub fn heatmap_svg(map: &HeatMap, cbs: &[Coord]) -> String {
    let n = map.width;
    let size = MARGIN * 2.0 + n as f64 * TILE;
    let max = map.heat.iter().cloned().fold(1.0_f64, f64::max);
    let mut s = String::new();
    let _ = write!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">"#
    );
    let _ = write!(s, r#"<rect width="{size}" height="{size}" fill="white"/>"#);
    for y in 0..n {
        for x in 0..n {
            let c = Coord::new(x, y);
            let v = map.heat[c.to_index(n)];
            let heat = (v / max).clamp(0.0, 1.0);
            // Cold = dark blue, hot = bright yellow.
            let r = (255.0 * heat) as u8;
            let g = (220.0 * heat) as u8;
            let b = (96.0 + 64.0 * (1.0 - heat)) as u8;
            let (cx, cy) = tile_center(c);
            let _ = write!(
                s,
                r##"<rect x="{:.1}" y="{:.1}" width="{t}" height="{t}" fill="rgb({r},{g},{b})" stroke="#333" stroke-width="0.5"/>"##,
                cx - TILE / 2.0,
                cy - TILE / 2.0,
                t = TILE
            );
            let _ = write!(
                s,
                r#"<text x="{cx:.1}" y="{:.1}" font-size="10" text-anchor="middle" fill="{tc}">{v:.1}</text>"#,
                cy + 3.0,
                tc = if heat > 0.5 { "black" } else { "white" }
            );
        }
    }
    for &cb in cbs {
        let (cx, cy) = tile_center(cb);
        let _ = write!(
            s,
            r#"<rect x="{:.1}" y="{:.1}" width="{t}" height="{t}" fill="none" stroke="red" stroke-width="2.5"/>"#,
            cx - TILE / 2.0,
            cy - TILE / 2.0,
            t = TILE
        );
    }
    s.push_str("</svg>");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatmap::placement_heatmap;
    use equinox_placement::Placement;

    #[test]
    fn design_svg_is_well_formed() {
        let d = EquiNoxDesign::quick(8, 8);
        let svg = design_svg(&d);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // One <line> per interposer link, one CB box per bank.
        assert_eq!(svg.matches("<line ").count(), d.num_links());
        assert_eq!(svg.matches(">C").count(), 8);
    }

    #[test]
    fn heatmap_svg_covers_every_tile() {
        let p = Placement::diamond(8, 8, 8);
        let h = placement_heatmap(&p, 0.5, 500, 1);
        let svg = heatmap_svg(&h, &p.cbs);
        assert!(svg.starts_with("<svg"));
        // 64 shaded tiles + 8 CB outlines + background.
        assert_eq!(svg.matches("<rect ").count(), 64 + 8 + 1);
        assert_eq!(svg.matches("<text ").count(), 64);
    }
}
