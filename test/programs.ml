open Simcov_dlx

type kernel = {
  name : string;
  description : string;
  source : string;
  checks : (int * int32) list;
}

let fibonacci =
  {
    name = "fibonacci";
    description = "iterative Fibonacci: r3 = fib(11) = 89";
    source =
      "addi r1, r0, 0\n\
       addi r2, r0, 1\n\
       addi r4, r0, 10\n\
       add r3, r1, r2\n\
       add r1, r2, r0\n\
       add r2, r3, r0\n\
       addi r4, r4, -1\n\
       bnez r4, -5\n";
    checks = [ (3, 89l) ];
  }

let memcpy =
  {
    name = "memcpy";
    description = "seed 4 words then copy them 16 cells up; r6 = last copied";
    source =
      "addi r1, r0, 4\n\
       addi r2, r0, 0\n\
       addi r5, r0, 7\n\
       addi r5, r5, 5\n\
       sw r5, 0(r2)\n\
       addi r2, r2, 1\n\
       addi r1, r1, -1\n\
       bnez r1, -5\n\
       addi r1, r0, 4\n\
       addi r2, r0, 0\n\
       lw r3, 0(r2)\n\
       sw r3, 16(r2)\n\
       addi r2, r2, 1\n\
       addi r1, r1, -1\n\
       bnez r1, -5\n\
       lw r6, 19(r0)\n";
    checks = [ (6, 27l) ];
  }

let bubble =
  {
    name = "bubble";
    description = "bubble-sorts the values 30,10,20 into r1 <= r2 <= r3";
    source =
      "addi r1, r0, 30\n\
       addi r2, r0, 10\n\
       addi r3, r0, 20\n\
       sgt r4, r1, r2\n\
       beqz r4, 4\n\
       add r5, r1, r0\n\
       add r1, r2, r0\n\
       add r2, r5, r0\n\
       nop\n\
       sgt r4, r2, r3\n\
       beqz r4, 4\n\
       add r5, r2, r0\n\
       add r2, r3, r0\n\
       add r3, r5, r0\n\
       nop\n\
       sgt r4, r1, r2\n\
       beqz r4, 4\n\
       add r5, r1, r0\n\
       add r1, r2, r0\n\
       add r2, r5, r0\n\
       nop\n\
       nop\n";
    checks = [ (1, 10l); (2, 20l); (3, 30l) ];
  }

let array_sum =
  {
    name = "array-sum";
    description = "seed mem[32..35] with 3,5,7,9 and reduce: r3 = 24";
    source =
      "addi r1, r0, 4\n\
       addi r2, r0, 32\n\
       addi r3, r0, 0\n\
       addi r4, r0, 3\n\
       sw r4, 0(r2)\n\
       addi r4, r4, 2\n\
       addi r2, r2, 1\n\
       addi r1, r1, -1\n\
       bnez r1, -5\n\
       addi r1, r0, 4\n\
       addi r2, r0, 32\n\
       lw r5, 0(r2)\n\
       add r3, r3, r5\n\
       addi r2, r2, 1\n\
       addi r1, r1, -1\n\
       bnez r1, -5\n";
    checks = [ (3, 24l) ];
  }

let gcd =
  {
    name = "gcd";
    description = "gcd(48, 36) by repeated subtraction: r1 = r2 = 12";
    source =
      "addi r1, r0, 48\n\
       addi r2, r0, 36\n\
       sub r3, r1, r2\n\
       beqz r3, 6\n\
       sgt r4, r1, r2\n\
       beqz r4, 2\n\
       sub r1, r1, r2\n\
       j 2\n\
       sub r2, r2, r1\n\
       j 2\n\
       nop\n";
    checks = [ (1, 12l); (2, 12l) ];
  }

let popcount =
  {
    name = "popcount";
    description = "population count of 181 (0b10110101): r2 = 5";
    source =
      "addi r1, r0, 181\n\
       addi r2, r0, 0\n\
       beqz r1, 5\n\
       andi r3, r1, 1\n\
       add r2, r2, r3\n\
       srli r1, r1, 1\n\
       j 2\n\
       nop\n\
       nop\n";
    checks = [ (2, 5l) ];
  }

let all = [ fibonacci; memcpy; bubble; array_sum; gcd; popcount ]

let find name = List.find_opt (fun k -> k.name = name) all

type error = { kernel : string; detail : string }

let error_to_string e =
  Printf.sprintf "kernel '%s' does not assemble: %s" e.kernel e.detail

let program k =
  match Isa.parse_program k.source with
  | Ok p -> Ok p
  | Error e -> Error { kernel = k.name; detail = e }

let run_spec k =
  Result.map
    (fun p ->
      let s = Spec.create p in
      let _ = Spec.run s in
      s)
    (program k)

let validate_all () =
  List.map
    (fun k -> (k.name, Result.map (fun p -> Validate.run_program p) (program k)))
    all

let validate_all_dual () =
  List.map
    (fun k -> (k.name, Result.map (fun p -> Dual.validate p) (program k)))
    all
