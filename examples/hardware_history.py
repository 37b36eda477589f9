"""Six years of hardware, in the toolchain's own units (paper Section 2.2).

The paper opens its background with AlexNet: trained in six days on two
GTX 580s in 2012, "instead of months of training on CPUs".  With the
device catalog covering the GTX 580, the P4000 and the Titan Xp, the
simulator can replay that history: AlexNet and ResNet-50 across three GPU
generations, plus the memory wall that forced Krizhevsky's two-GPU model
split, plus estimated time-to-accuracy then and now.
"""

from repro.hardware.devices import GTX_580, QUADRO_P4000, TITAN_XP
from repro.hardware.memory import OutOfMemoryError
from repro.training.convergence import FIG2_MODELS
from repro.training.session import TrainingSession

_DEVICES = (GTX_580, QUADRO_P4000, TITAN_XP)


def sweep_devices(model: str, batch: int) -> dict:
    throughputs = {}
    for device in _DEVICES:
        session = TrainingSession(model, "mxnet", gpu=device)
        try:
            throughputs[device.name] = session.run_iteration(batch).throughput
        except OutOfMemoryError:
            throughputs[device.name] = None
    return throughputs


def main() -> None:
    print("AlexNet (2012) across GPU generations, batch 128:")
    for name, value in sweep_devices("alexnet", 128).items():
        if value is None:
            print(f"  {name:16s} does not fit — the memory wall that forced the")
            print("                   original two-GPU model split (Section 2.2)")
        else:
            print(f"  {name:16s} {value:8.1f} images/s")
    print()

    print("AlexNet at batch 32 (fits everywhere):")
    base = None
    for name, value in sweep_devices("alexnet", 32).items():
        base = base or value
        print(f"  {name:16s} {value:8.1f} images/s ({value / base:4.1f}x the GTX 580)")
    print()

    print("ResNet-50 (2015) at batch 16 — a model the 580 era could not train:")
    for name, value in sweep_devices("resnet-50", 16).items():
        if value is None:
            print(f"  {name:16s} does not fit in memory")
        else:
            print(f"  {name:16s} {value:8.1f} images/s")
    print()

    print("estimated wall-clock to 70% top-1 on ImageNet (ResNet-50, b=32):")
    for device in (QUADRO_P4000, TITAN_XP):
        throughput = TrainingSession("resnet-50", "mxnet", gpu=device).run_iteration(
            32
        ).throughput
        seconds = FIG2_MODELS["resnet-50"].samples_to(70.0) / throughput
        print(f"  {device.name:16s} {seconds / 86400.0:5.1f} days")


if __name__ == "__main__":
    main()
