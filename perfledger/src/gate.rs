//! The correctness gate every timed run passes through.
//!
//! * The sharded engine must reproduce the serial report field for
//!   field (class-wait float moments to rounding: the sharded engine
//!   accumulates them as exact integer moments).
//! * On broadcast-only points `pstar-net` must match the serial
//!   engine's measured task set and its delivered, lost and dropped
//!   counts exactly.
//! * Every backend must repeat its own report bit for bit in every
//!   round of a run.
//! * At the default seed every backend's report digest must equal the
//!   committed one in `digests.txt`.

use pstar_sim::SimReport;
use std::collections::BTreeMap;

/// The committed digests, compiled in.
pub const COMMITTED: &str = include_str!("../digests.txt");

/// FNV-1a digest of a report's full `Debug` form.
pub fn digest(rep: &SimReport) -> u64 {
    pstar_obs::config_hash(&format!("{rep:?}"))
}

/// `(workload, point label, backend) -> digest`.
pub type Digests = BTreeMap<(String, String, String), u64>;

/// Parses a digest file: one `workload point backend hex` line per
/// report, `#` comments.
pub fn parse_digests(text: &str) -> Result<Digests, String> {
    let mut out = Digests::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [w, p, b, hex] = f[..] else {
            return Err(format!("digest line {}: expected 4 fields", i + 1));
        };
        let d = u64::from_str_radix(hex, 16).map_err(|e| format!("digest line {}: {e}", i + 1))?;
        out.insert((w.into(), p.into(), b.into()), d);
    }
    Ok(out)
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Field-for-field serial-vs-sharded equality. Everything is exact
/// except the per-class wait means and variances, which agree to float
/// rounding.
pub fn sharded_matches(serial: &SimReport, sharded: &SimReport) -> Result<(), String> {
    let pairs = |a: &SimReport, b: &SimReport| {
        let mut v: Vec<_> = a
            .class
            .iter()
            .zip(&b.class)
            .map(|(x, y)| (x.wait, y.wait))
            .collect();
        v.extend(
            a.faults
                .class_wait_fault
                .iter()
                .zip(&b.faults.class_wait_fault)
                .map(|(x, y)| (*x, *y)),
        );
        v
    };
    for (k, (a, b)) in pairs(serial, sharded).into_iter().enumerate() {
        if !close(a.mean, b.mean) || !close(a.variance, b.variance) {
            return Err(format!("class wait summary {k} differs: {a:?} vs {b:?}"));
        }
    }
    // With the rounded moments checked, blank them and require the
    // rest of the Debug form to be identical.
    let blank = |r: &SimReport| {
        let mut r = r.clone();
        for c in &mut r.class {
            c.wait.mean = 0.0;
            c.wait.variance = 0.0;
        }
        for w in &mut r.faults.class_wait_fault {
            w.mean = 0.0;
            w.variance = 0.0;
        }
        format!("{r:?}")
    };
    let (a, b) = (blank(serial), blank(sharded));
    if a == b {
        return Ok(());
    }
    let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    let from = at.saturating_sub(60);
    Err(format!(
        "sharded report differs from serial near `{}`",
        &a[from..(at + 20).min(a.len())]
    ))
}

/// Exact count agreement of the runtime with the serial engine on a
/// broadcast-only point.
pub fn net_matches(serial: &SimReport, net: &SimReport) -> Result<(), String> {
    let fields = [
        (
            "measured_broadcasts",
            serial.measured_broadcasts,
            net.measured_broadcasts,
        ),
        (
            "delivered receptions",
            serial.reception_delay.count,
            net.reception_delay.count,
        ),
        (
            "lost_receptions",
            serial.lost_receptions,
            net.lost_receptions,
        ),
        (
            "dropped_packets",
            serial.dropped_packets,
            net.dropped_packets,
        ),
    ];
    for (name, s, n) in fields {
        if s != n {
            return Err(format!("net {name} {n} != serial {s}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_file_round_trips() {
        let d = parse_digests("# c\nw p serial 00ff\n\nw p net abc\n").unwrap();
        assert_eq!(d[&("w".into(), "p".into(), "serial".into())], 0xff);
        assert_eq!(d.len(), 2);
        assert!(parse_digests("w p serial").is_err());
        assert!(parse_digests("w p serial xyz").is_err());
    }

    #[test]
    fn committed_digests_parse() {
        assert!(!parse_digests(COMMITTED).unwrap().is_empty());
    }
}
