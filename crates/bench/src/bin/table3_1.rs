//! Reproduces **Table 3.1** — thread assignment to the big and little
//! clusters — by evaluating the implemented rule over the paper's
//! regimes and printing the resulting `(T_B, T_L, C_B,U, C_L,U)` table.

fn main() {
    hars_bench::experiments::table3_1();
}
