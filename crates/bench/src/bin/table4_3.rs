//! Reproduces **Table 4.3** — the state & freeze decision table of
//! MP-HARS's interference-aware adaptation — by exercising the
//! implemented decision function over every row.

fn main() {
    hars_bench::experiments::table4_3();
}
