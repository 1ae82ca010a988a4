# Compare gpumech CLI stdout byte-for-byte against the checked-in
# golden transcripts in tests/golden/. Invoked by the cli_golden
# ctest entry (see CMakeLists.txt):
#
#   cmake -DGPUMECH_BIN=<path> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<dir> -P cli_golden.cmake
#
# The goldens were captured from the pre-refactor monolithic CLI, so
# this test pins the engine/front-end split: every subcommand routed
# through EngineSession must stay bit-identical to the original
# in-process pipeline, including table layout, JSON field order, and
# rounding. The next six cases came later: they pin the tune, compare,
# sweep-mode and machine-override options the first seven never pass,
# so a change to argument parsing that moves their output shows here.
# The next four pin the machine knobs no earlier case sweeps or tunes:
# a warps sweep (re-profiled per point), l2-kb and sfu-lanes sweeps,
# and a tune that moves cores, warps and l2-kb together. The last
# pins a fractional bandwidth's row labels, which print unrounded.
#
# Every case runs at --jobs 1 and at --jobs 4 against the same golden,
# so a result that depends on the thread count fails here too.

if(NOT DEFINED GPUMECH_BIN OR NOT DEFINED GOLDEN_DIR
   OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR
        "GPUMECH_BIN, GOLDEN_DIR and WORK_DIR are required")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})

# "name|space-separated args" — one entry per golden file <name>.txt.
set(cases
    "list|list"
    "model_kmeans|model kmeans_invert_mapping"
    "model_srad_json|model srad_kernel1 --json --warps 16 --mshrs 64 --policy gto --level mshr"
    "stack_micro|stack micro_stream --warps 8 --cores 2"
    "suite_micro_predict|suite micro --predict --warps 4 --cores 2"
    "sweep_micro_mshrs|sweep micro_stream --param mshrs --values 8,16 --warps 4 --cores 2"
    "simulate_micro_json|simulate micro_stream --warps 4 --cores 2 --json"
    "tune_micro_cost|tune micro_stream --warps 4 --cores 2 --dims mshrs,bw --mshrs-values 8,16,32 --objective cpi-cost --restarts 2 --seed 3 --max-cpi 100 --cost-weights mshrs=0.2,bw=1 --sweep-mode rerun"
    "tune_micro_approx|tune micro_stream --warps 4 --cores 2 --dims l1-kb,scheduler --allow-approx --mrc-rate 0.5"
    "compare_micro_gto|compare micro_stream --warps 4 --cores 2 --policy gto"
    "sweep_micro_l1_mrc|sweep micro_stream --warps 4 --cores 2 --param l1-kb --values 16,32,64 --sweep-mode mrc --mrc-rate 0.5"
    "sweep_micro_bw_oracle|sweep micro_stream --warps 4 --cores 2 --param bw --values 96,192 --oracle"
    "model_micro_sfu_json|model micro_stream --warps 4 --cores 2 --level mt --model-sfu --sfu-lanes 8 --bw 96.5 --mshrs 16 --json"
    "sweep_micro_warps|sweep micro_stream --warps 4 --cores 2 --param warps --values 2,4,8"
    "sweep_spmv_l2|sweep spmv_jds --warps 4 --cores 2 --param l2-kb --values 64,192,768"
    "sweep_sfu_lanes|sweep micro_sfu_heavy --warps 16 --cores 2 --param sfu-lanes --values 2,8,32 --model-sfu"
    "tune_spmv_trace_dims|tune spmv_jds --warps 4 --cores 2 --dims cores,warps,l2-kb --cores-values 1,2 --warps-values 2,4,8 --l2-kb-values 64,768"
    "sweep_micro_bw_fraction|sweep micro_stream --warps 4 --cores 2 --param bw --values 96.4,96.6")

foreach(case ${cases})
    string(FIND "${case}" "|" sep)
    string(SUBSTRING "${case}" 0 ${sep} name)
    math(EXPR after "${sep} + 1")
    string(SUBSTRING "${case}" ${after} -1 shown)
    string(REPLACE " " ";" args "${shown}")

    set(golden ${GOLDEN_DIR}/${name}.txt)
    if(NOT EXISTS ${golden})
        message(FATAL_ERROR "golden file missing: ${golden}")
    endif()

    foreach(jobs 1 4)
        set(actual ${WORK_DIR}/${name}.j${jobs}.txt)
        execute_process(
            COMMAND ${GPUMECH_BIN} ${args} --jobs ${jobs}
            RESULT_VARIABLE run_code
            OUTPUT_FILE ${actual}
            ERROR_VARIABLE run_errors)
        if(NOT run_code EQUAL 0)
            message(FATAL_ERROR
                "gpumech ${shown} --jobs ${jobs} exited ${run_code}\n"
                "stderr:\n${run_errors}")
        endif()

        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files ${golden} ${actual}
            RESULT_VARIABLE diff_code)
        if(NOT diff_code EQUAL 0)
            file(READ ${golden} want)
            file(READ ${actual} got)
            message(FATAL_ERROR
                "gpumech ${shown} --jobs ${jobs} diverged from ${golden}\n"
                "---- expected ----\n${want}\n"
                "---- actual ----\n${got}")
        endif()
    endforeach()
endforeach()
