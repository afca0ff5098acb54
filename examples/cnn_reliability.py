#!/usr/bin/env python
"""CNN reliability under permanent parallelism-management errors.

Runs LeNet inference under the parallel-management error models
(IAT/IAW/IAC) and reports how often the classification outcome (argmax of
the logits) actually flips — the paper's motivation for studying these
units: scheduler errors silently corrupt CNN predictions.
"""

import numpy as np

from repro.common.exceptions import DeviceError
from repro.errormodels.models import ErrorModel
from repro.gpusim import Device, DeviceConfig
from repro.swinjector import NVBitPERfi, make_descriptor
from repro.workloads import default_launcher, get_workload


def run_lenet(tool=None, scale="tiny"):
    w = get_workload("lenet", scale=scale)
    dev = Device(DeviceConfig(global_mem_words=1 << 20))
    return w.run(dev, default_launcher(dev, watchdog=3_000_000,
                                       instrumentation=tool))


def main() -> None:
    golden = run_lenet()
    logits = golden.view(np.float32)
    print(f"golden logits: {np.array2string(logits, precision=3)}")
    print(f"golden class:  {int(np.argmax(logits))}\n")

    n_inj = 15
    for model in (ErrorModel.IAT, ErrorModel.IAW, ErrorModel.IAC):
        outcomes = {"masked": 0, "sdc": 0, "due": 0, "misclass": 0}
        for i in range(n_inj):
            tool = NVBitPERfi(make_descriptor(model, seed=0xC1A0, index=i))
            try:
                bits = run_lenet(tool)
            except DeviceError:
                outcomes["due"] += 1
                continue
            if np.array_equal(bits, golden):
                outcomes["masked"] += 1
            else:
                outcomes["sdc"] += 1
                if int(np.argmax(bits.view(np.float32))) != \
                        int(np.argmax(logits)):
                    outcomes["misclass"] += 1
        print(f"{model.value}: masked={outcomes['masked']}/{n_inj} "
              f"sdc={outcomes['sdc']} due={outcomes['due']} "
              f"(misclassifications: {outcomes['misclass']})")


if __name__ == "__main__":
    main()
