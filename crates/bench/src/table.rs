//! Plain-text table/series printing for the experiments.

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints a labelled series as `t value` pairs, downsampled to at most
/// `max_points`.
pub fn print_series(label: &str, points: &[(f64, f64)], max_points: usize) {
    println!("\n-- {label} --");
    let step = (points.len() / max_points.max(1)).max(1);
    for (i, (t, v)) in points.iter().enumerate() {
        if i % step == 0 || i + 1 == points.len() {
            println!("  t={t:8.3}  {v:14.6e}");
        }
    }
}

/// Formats a ratio like `1.2e-10` as "1 per 8.3e9 packets".
pub fn one_in(ratio: f64) -> String {
    if ratio <= 0.0 {
        "lossless".to_string()
    } else {
        format!("1 per {:.1e}", 1.0 / ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        print_series("s", &[(0.0, 1.0), (1.0, 2.0)], 10);
        assert_eq!(one_in(0.0), "lossless");
        assert!(one_in(1e-10).contains("1.0e10"));
    }
}
