//! `/proc` readers: peak RSS and per-thread CPU time. Linux only; every
//! reader returns `None`/empty elsewhere and the metric reports 0.

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second (`USER_HZ`); 100 on every Linux ABI.
pub const CLK_TCK: f64 = 100.0;

/// CPU time of one thread or process, in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cpu {
    pub user: u64,
    pub sys: u64,
}

impl Cpu {
    pub fn total(self) -> u64 {
        self.user + self.sys
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }
}

/// Parses `utime`/`stime` (fields 14 and 15) out of a `stat` line. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
fn parse_stat(line: &str) -> Option<Cpu> {
    let rest = line.get(line.rfind(')')? + 1..)?;
    let mut fields = rest.split_ascii_whitespace();
    let user = fields.nth(11)?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some(Cpu { user, sys })
}

/// CPU time of the whole process, exited threads included.
pub fn process_cpu() -> Cpu {
    fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_stat(&s)).unwrap_or_default()
}

/// CPU time of every live thread, by tid.
pub fn thread_cpu() -> BTreeMap<u32, Cpu> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if let Some(cpu) =
            fs::read_to_string(entry.path().join("stat")).ok().and_then(|s| parse_stat(&s))
        {
            out.insert(tid, cpu);
        }
    }
    out
}

/// The calling thread's tid, read from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`) because safe Rust has no `gettid`.
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 111 222 13 14";
        assert_eq!(parse_stat(line), Some(Cpu { user: 111, sys: 222 }));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn own_thread_shows_up_in_the_task_table() {
        let Some(tid) = current_tid() else { return };
        assert!(thread_cpu().contains_key(&tid));
        assert!(peak_rss_mib() > 0.0);
    }
}
