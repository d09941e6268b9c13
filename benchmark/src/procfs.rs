//! Process accounting read from `/proc/self`: CPU time, peak resident set
//! and context switches, for the whole process (every thread).

use std::fs;

/// Kernel clock ticks per second of `/proc/self/stat`'s `utime`/`stime`.
/// `USER_HZ` is 100 on every Linux ABI, whatever the kernel's own `HZ`.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of the process so far, in milliseconds.
pub fn cpu_ms() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ms(&stat)
}

fn parse_cpu_ms(stat: &str) -> Result<f64, String> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numbered fields resume after its last ')'.
    let rest = stat
        .rfind(')')
        .map(|at| &stat[at + 1..])
        .ok_or("no ')' in /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |field: usize| -> Result<f64, String> {
        fields
            .get(field - 3)
            .and_then(|text| text.parse::<f64>().ok())
            .ok_or_else(|| format!("field {field} of /proc/self/stat is missing"))
    };
    Ok((tick(14)? + tick(15)?) / TICKS_PER_SECOND * 1e3)
}

/// Peak resident set size of the process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status_number(&status, "VmHWM:")
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn status_number(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|text| text.parse().ok())
}

/// Voluntary plus involuntary context switches, summed over the live
/// threads of the process. (A thread that has exited takes its count with
/// it, so take deltas over sections in which no thread ends.)
pub fn context_switches() -> Result<u64, String> {
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    let mut total = 0u64;
    for task in tasks.flatten() {
        // A thread can exit between the listing and the read; skip it.
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        for key in ["voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"] {
            total += status_number(&status, key).unwrap_or(0.0) as u64;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_is_parsed_past_an_awkward_command_name() {
        let stat = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 4 0";
        assert_eq!(parse_cpu_ms(stat), Ok(3000.0));
        assert!(parse_cpu_ms("42 (x) R 1 2").is_err());
    }

    #[test]
    fn live_readings_are_plausible() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        assert!(cpu_ms().unwrap() >= 0.0);
        context_switches().unwrap();
    }
}
