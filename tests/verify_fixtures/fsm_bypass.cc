// Fixture: health_ assignments for the F013 source check. Only the
// assigned expression, read up to its `;`, decides: it must be the
// `.to` state of a recovery step. A bypass followed by a line that
// merely contains ".to" (stats_.total_bits) must still be reported.

enum class Health { Healthy, Degraded };
enum class RecoveryEvent { DesyncDetected, RecoverEngage };

struct RecoveryStep
{
    Health to;
    unsigned epoch_delta;
};

const RecoveryStep &recoveryAdvance(Health from, RecoveryEvent ev);

struct Stats
{
    unsigned long long total_bits;
};

struct Channel
{
    Health health_;
    Stats stats_;
    unsigned epoch_ = 0;

    void
    bypass()
    {
        health_ = Health::Healthy;  // expect: F013
        stats_.total_bits = 0;
    }

    void
    routedAcrossLines()
    {
        health_ = recoveryAdvance(health_,
                                  RecoveryEvent::DesyncDetected)
                      .to;
    }

    void
    routedThroughStep()
    {
        const RecoveryStep &step =
            recoveryAdvance(health_, RecoveryEvent::RecoverEngage);
        health_ = step.to;
        epoch_ += step.epoch_delta;
    }

    bool degraded() const { return health_ == Health::Degraded; }
};
