//! `e2ebench --workload open|slider|serve --seed N --seconds S --trace 0|1`

#[global_allocator]
static HEAP: ocelotl_e2ebench::alloc::Counting = ocelotl_e2ebench::alloc::Counting;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match ocelotl_e2ebench::run::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match ocelotl_e2ebench::run::run(&args) {
        Ok(outcome) => {
            println!("{}", ocelotl_e2ebench::report::settings_line(&outcome));
            println!("{}", ocelotl_e2ebench::report::result_line(&outcome));
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
