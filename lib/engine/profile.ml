type failure_reason =
  | Union_capacity of { terms : int; limit : int }
  | Materialization_overflow of { rows : int; limit : int }
  | Operation_budget of { limit : int }

exception Engine_failure of { engine : string; reason : failure_reason }

type join_algorithm = Hash_join | Block_nested_loop

type t = {
  name : string;
  max_union_terms : int;
  max_materialized_rows : int;
  max_operations : int;
  fragment_join : join_algorithm;
  c_db : float;
  c_t : float;
  c_j : float;
  c_m : float;
  c_l : float;
}

let postgres_like =
  {
    name = "postgres-like";
    max_union_terms = 100_000;
    max_materialized_rows = 4_000_000;
    max_operations = 2_000_000_000;
    fragment_join = Hash_join;
    c_db = 0.5;
    c_t = 0.00012;
    c_j = 0.00020;
    c_m = 0.00025;
    c_l = 0.00018;
  }

let db2_like =
  {
    name = "db2-like";
    max_union_terms = 8_000;
    max_materialized_rows = 8_000_000;
    max_operations = 2_000_000_000;
    fragment_join = Hash_join;
    c_db = 0.8;
    c_t = 0.00010;
    c_j = 0.00018;
    c_m = 0.00030;
    c_l = 0.00016;
  }

let mysql_like =
  {
    name = "mysql-like";
    max_union_terms = 60_000;
    max_materialized_rows = 2_000_000;
    (* a long statement timeout: block-nested-loop joins are meant to show
       up as painful measured times (the paper's 1000-second SCQs), not as
       premature failures *)
    max_operations = 40_000_000_000;
    fragment_join = Block_nested_loop;
    c_db = 0.3;
    c_t = 0.00015;
    c_j = 0.00060;
    c_m = 0.00040;
    c_l = 0.00025;
  }

let virtuoso_like =
  {
    name = "virtuoso-like";
    max_union_terms = 200_000;
    max_materialized_rows = 16_000_000;
    max_operations = 4_000_000_000;
    fragment_join = Hash_join;
    c_db = 0.2;
    c_t = 0.00006;
    c_j = 0.00010;
    c_m = 0.00012;
    c_l = 0.00008;
  }

let all = [ postgres_like; db2_like; mysql_like ]

let failure_to_string = function
  | Union_capacity { terms; limit } ->
      Printf.sprintf "union capacity exceeded (%d terms > %d)" terms limit
  | Materialization_overflow { rows; limit } ->
      Printf.sprintf "materialization overflow (%d rows > %d)" rows limit
  | Operation_budget { limit } ->
      Printf.sprintf "operation budget exhausted (> %d work units)" limit
